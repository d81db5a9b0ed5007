"""WorldTimeline: batched evaluation parity, plans, composition."""

import tracemalloc

import numpy as np
import pytest

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.faults import FaultSchedule, FaultSpec, StationChurn
from repro.sensing import RespirationSensingLink, TracedBreathingSubject
from repro.serve.loadgen import LoadProfile, generate_trace
from repro.world import (
    MobilityTrace,
    RespirationTrace,
    RotationTrace,
    WorldTimeline,
    dynamics,
)


@pytest.fixture(scope="module")
def spec():
    return FleetSpec.office(station_count=4, seed=42)


@pytest.fixture(scope="module")
def moving_timeline(spec):
    names = spec.station_names
    mobility = {names[0]: MobilityTrace.random_waypoint(
        7, names[0], duration_s=2.0)}
    rotation = {names[1]: RotationTrace.swing(duration_s=2.0)}
    return WorldTimeline(spec, mobility=mobility, rotation=rotation,
                         duration_s=2.0, time_step_s=0.5)


class TestConstruction:
    def test_rejects_unknown_trace_stations(self, spec):
        with pytest.raises(KeyError, match="unknown stations"):
            WorldTimeline(spec, mobility={
                "ghost": MobilityTrace.static(3.0)})

    def test_rejects_non_positive_grid(self, spec):
        with pytest.raises(ValueError, match="positive"):
            WorldTimeline(spec, duration_s=0.0)

    def test_epoch_grid_shape(self, spec):
        timeline = WorldTimeline(spec, duration_s=2.0, time_step_s=0.5)
        assert timeline.epoch_count == 4
        assert timeline.distance_plane().shape == (4, 4)
        assert timeline.orientation_plane().shape == (4, 4)


class TestBatchedParity:
    def test_static_world_equals_static_snapshot(self, spec):
        timeline = WorldTimeline(spec, duration_s=2.0, time_step_s=0.5)
        plane = timeline.evaluate(vx=12.0, vy=18.0)
        snapshot = FleetSession(spec).measure_aligned(12.0, 18.0)
        assert float(np.max(np.abs(plane - snapshot[None, :]))) <= 1e-9

    def test_batched_equals_scalar_reference(self, moving_timeline):
        batched = moving_timeline.evaluate(vx=6.0, vy=24.0)
        reference = moving_timeline.evaluate_reference(vx=6.0, vy=24.0)
        assert float(np.max(np.abs(batched - reference))) <= 1e-9

    def test_per_station_bias_arrays_broadcast(self, moving_timeline):
        count = len(moving_timeline.station_names)
        vx = np.linspace(0.0, 30.0, count)
        vy = np.linspace(30.0, 0.0, count)
        batched = moving_timeline.evaluate(vx=vx, vy=vy)
        reference = moving_timeline.evaluate_reference(vx=vx, vy=vy)
        assert float(np.max(np.abs(batched - reference))) <= 1e-9

    def test_motion_actually_changes_the_plane(self, spec, moving_timeline):
        static = WorldTimeline(spec, duration_s=2.0, time_step_s=0.5)
        assert not np.allclose(moving_timeline.evaluate(),
                               static.evaluate())


class TestPlansAndRuns:
    def test_retuned_static_world_matches_static_plan(self, spec):
        timeline = WorldTimeline(spec, duration_s=1.0, time_step_s=0.5)
        vx, vy, power = timeline.best_bias_planes(step_v=15.0)
        plan = FleetSession(spec).best_bias_plan(step_v=15.0)
        np.testing.assert_array_equal(vx, np.broadcast_to(
            plan.best_vx, vx.shape))
        np.testing.assert_array_equal(vy, np.broadcast_to(
            plan.best_vy, vy.shape))
        np.testing.assert_allclose(power, np.broadcast_to(
            plan.best_power_dbm, power.shape), atol=1e-9)

    def test_run_report_shapes_and_replay(self, moving_timeline):
        report = moving_timeline.run(bias_search_step_v=15.0)
        epochs = moving_timeline.epoch_count
        stations = len(moving_timeline.station_names)
        assert report.powers_with_dbm.shape == (epochs, stations)
        assert report.bias_vx.shape == (epochs, stations)
        assert report.gains_db.shape == (epochs, stations)
        assert len(report.epoch_mean_power_dbm) == epochs
        again = moving_timeline.run(bias_search_step_v=15.0)
        np.testing.assert_array_equal(report.powers_with_dbm,
                                      again.powers_with_dbm)
        assert report.trace_digests == again.trace_digests

    def test_retuned_beats_stale_plan(self, moving_timeline):
        retuned = moving_timeline.run(bias_search_step_v=15.0)
        stale = moving_timeline.run(bias_search_step_v=15.0, retune=False)
        assert retuned.mean_gain_db >= stale.mean_gain_db - 1e-9

    def test_tracking_requires_a_rotation_trace(self, moving_timeline):
        with pytest.raises(KeyError, match="no rotation trace"):
            moving_timeline.run_tracking(
                moving_timeline.station_names[0])

    def test_tracking_runs_on_the_epoch_grid(self, moving_timeline):
        station = moving_timeline.station_names[1]
        report = moving_timeline.run_tracking(station)
        assert len(report.samples) == moving_timeline.epoch_count
        assert report.retune_count >= 1


def _first_max_reference(cube, vx_flat, vy_flat):
    """Per-cell first maximum over the candidate axis, one cell at a
    time: NaN candidates never win, an all-NaN cell keeps candidate 0."""
    _, epochs, stations = cube.shape
    planes = [np.empty((epochs, stations)) for _ in range(3)]
    for t in range(epochs):
        for i in range(stations):
            best = None
            for k, value in enumerate(cube[:, t, i]):
                if not np.isnan(value) and (best is None or
                                            value > cube[best, t, i]):
                    best = k
            best = 0 if best is None else best
            planes[0][t, i] = vx_flat[best]
            planes[1][t, i] = vy_flat[best]
            planes[2][t, i] = cube[best, t, i]
    return tuple(planes)


class TestStreamedCube:
    """``best_bias_planes`` probes the cube in trace-plane slices."""

    @pytest.fixture(scope="class", params=[(6, 5.0), (12, 2.0)],
                    ids=["epoch-slices", "station-slices"])
    def timeline(self, request):
        """Slices run along the longer plane axis: 10 epochs x 6
        stations splits epochs, 4 epochs x 12 stations splits stations."""
        stations, duration_s = request.param
        spec = FleetSpec.office(station_count=stations, seed=11)
        names = spec.station_names
        half = stations // 2
        return WorldTimeline(
            spec,
            mobility={name: MobilityTrace.random_waypoint(
                11, name, duration_s=duration_s) for name in names[:half]},
            rotation={name: RotationTrace.random_walk(
                11, name, duration_s=duration_s) for name in names[half:]},
            duration_s=duration_s, time_step_s=0.5)

    @pytest.fixture
    def coarse_engine(self, monkeypatch, timeline):
        """Quantize the engine to whole dB (exact ties between
        candidates), make the vx = 30 V candidates NaN and every
        candidate of the far half of the cells NaN — all decided by the
        probed values, so any slicing sees the same cube."""
        evaluate_grid = WirelessLink.evaluate_grid
        far = float(np.median(timeline.distance_plane()))
        calls = []

        def coarse(link, grid):
            calls.append(grid.shape)
            powers = np.round(evaluate_grid(link, grid))
            powers = np.where(grid.expand("vx") == 30.0, np.nan, powers)
            return np.where(grid.expand("distance") > far, np.nan, powers)

        monkeypatch.setattr(WirelessLink, "evaluate_grid", coarse)
        return calls

    def test_many_slices_equal_one_slice(self, monkeypatch, timeline,
                                         coarse_engine):
        step = 7.5
        levels = np.arange(0.0, 30.0 + 0.5 * step, step)
        vx_flat = np.repeat(levels, levels.size)
        vy_flat = np.tile(levels, levels.size)
        monkeypatch.setattr(dynamics, "_CUBE_SLICE_CELLS", 10 ** 9)
        whole = timeline.best_bias_planes(step_v=step)
        assert len(coarse_engine) == 1
        cube_shape = coarse_engine[0]
        # The unsliced cube, reduced one cell at a time.
        ensemble = timeline.fleet.deployment.ensemble_for(with_surface=True)
        cube = ensemble.link.evaluate_grid(ProbeGrid.aligned(
            distance=timeline.distance_plane()[None],
            tx_orientation=timeline.orientation_plane()[None],
            tx_power=ensemble.parameter("tx_power_dbm"),
            vx=vx_flat[:, None, None], vy=vy_flat[:, None, None]))
        assert cube.shape == cube_shape
        assert np.any(np.all(np.isnan(cube), axis=0))
        top = np.max(np.where(np.isnan(cube), -np.inf, cube), axis=0)
        assert np.any(np.sum(cube == top, axis=0) > 1)  # exact ties
        reference = _first_max_reference(cube, vx_flat, vy_flat)
        for expected, got in zip(reference, whole):
            np.testing.assert_array_equal(got, expected)
        for cells in (1, 7 * levels.size ** 2, 3 * levels.size ** 2 + 5):
            del coarse_engine[:]
            monkeypatch.setattr(dynamics, "_CUBE_SLICE_CELLS", cells)
            sliced = timeline.best_bias_planes(step_v=step)
            assert len(coarse_engine) > 1
            for expected, got in zip(whole, sliced):
                np.testing.assert_array_equal(got, expected)

    def test_fine_step_cube_peak_memory(self):
        """A 961-candidate cube over 250 epochs x 8 stations (1.9M
        cells) stays under 48 MB of traced allocations.  The unsliced
        cube's final complex field array alone would be 61.5 MB; each
        slice of about 2**18 cells peaks near 34 MB."""
        spec = FleetSpec.office(station_count=8, seed=5)
        names = spec.station_names
        timeline = WorldTimeline(
            spec,
            mobility={names[0]: MobilityTrace.random_waypoint(
                5, names[0], duration_s=25.0)},
            rotation={names[1]: RotationTrace.random_walk(
                5, names[1], duration_s=25.0)},
            duration_s=25.0, time_step_s=0.1)
        assert timeline.epoch_count == 250
        timeline.best_bias_planes(step_v=15.0)  # fill the link caches
        tracemalloc.start()
        try:
            vx, _, power = timeline.best_bias_planes(step_v=1.0)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vx.shape == power.shape == (250, 8)
        assert np.all(np.isfinite(power))
        assert peak_bytes < 48 * 2 ** 20, peak_bytes / 2 ** 20


class TestComposition:
    def test_churn_station_sets_cover_every_epoch(self, spec,
                                                  moving_timeline):
        schedule = FaultSchedule(
            FaultSpec(station_mtbf_epochs=2.0, station_mttr_epochs=2.0),
            seed=5)
        churn = StationChurn(schedule, spec.station_names)
        sets = moving_timeline.active_station_sets(churn)
        assert len(sets) == moving_timeline.epoch_count
        for names in sets:
            assert set(names) <= set(spec.station_names)

    def test_epoch_request_traces_use_per_epoch_streams(self, spec,
                                                        moving_timeline):
        profile = LoadProfile(rate_rps=40.0, duration_s=0.5, seed=3)
        names = spec.station_names
        sets = tuple([names] * moving_timeline.epoch_count)
        traces = moving_timeline.epoch_request_traces(profile, sets)
        digests = [trace.digest() for trace in traces]
        # Same stations, different streams per epoch -> distinct loads.
        assert len(set(digests)) == len(digests)
        # And none of them equals the steady-state loadgen stream.
        steady = generate_trace(profile, names)
        assert steady.digest() not in digests

    def test_empty_epoch_yields_none(self, moving_timeline):
        profile = LoadProfile(rate_rps=40.0, duration_s=0.5, seed=3)
        sets = ((), ("desk-0",), (), ("desk-1",))
        traces = moving_timeline.epoch_request_traces(profile, sets)
        assert traces[0] is None and traces[2] is None
        assert traces[1] is not None and traces[3] is not None


class TestTracedBreathing:
    def test_traced_subject_drives_the_sensing_link(self):
        trace = RespirationTrace.breathing(rate_hz=0.25, duration_s=20.0)
        subject = TracedBreathingSubject(trace=trace)
        link = RespirationSensingLink(subject=subject)
        capture = link.capture(duration_s=20.0, sample_rate_hz=10.0)
        assert capture.power_dbm.shape == capture.timestamps_s.shape
        assert capture.peak_to_peak_db > 0.0

    def test_traced_subject_matches_builtin_sinusoid(self):
        from repro.sensing import BreathingSubject
        builtin = BreathingSubject(respiration_rate_hz=0.25,
                                   chest_displacement_m=0.005)
        traced = TracedBreathingSubject(
            trace=RespirationTrace.breathing(
                rate_hz=0.25, displacement_m=0.005, duration_s=30.0,
                samples_per_cycle=200))
        times = np.linspace(0.0, 8.0, 50)
        np.testing.assert_allclose(traced.chest_offset_m(times),
                                   builtin.chest_offset_m(times),
                                   atol=5e-5)

    def test_traced_subject_rejects_non_trace(self):
        with pytest.raises(TypeError, match="sample"):
            TracedBreathingSubject(trace=object())
