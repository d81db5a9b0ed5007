"""Tests for the dense-deployment / polarization-reuse extension."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.devices.wifi import wifi_rate_for_rssi_mbps
from repro.experiments.artifacts import encode
from repro.network.access_control import polarization_access_control
from repro.network.deployment import DenseDeployment, FleetSpec, StationSpec
from repro.network.scheduler import (
    FixedBiasScheduler,
    PerStationScheduler,
    PolarizationReuseScheduler,
    ScheduleResult,
    StationAllocation,
    baseline_without_surface,
    jain_fairness_index,
)


def small_deployment(seed=7):
    """Three far-away, low-power stations with mixed antenna orientations.

    Distances and transmit powers are chosen so that the mismatched
    stations sit on the 802.11g rate cliff: that is the regime where the
    surface's polarization correction translates into throughput.
    """
    stations = (
        StationSpec("aligned", distance_m=10.0, orientation_deg=0.0,
                    tx_power_dbm=0.0),
        StationSpec("tilted", distance_m=14.0, orientation_deg=80.0,
                    tx_power_dbm=0.0),
        StationSpec("orthogonal", distance_m=12.0, orientation_deg=90.0,
                    tx_power_dbm=0.0),
    )
    return DenseDeployment(FleetSpec(stations, environment_seed=seed))


def deployment_of(stations):
    """The default-field deployment of a station list."""
    return FleetSpec(stations).build()


@pytest.fixture(scope="module")
def deployment():
    return small_deployment()


class TestDeployment:
    def test_requires_stations(self):
        with pytest.raises(ValueError, match="at least one station"):
            FleetSpec(stations=())

    def test_requires_unique_names(self):
        station = StationSpec("dup", 3.0, 0.0)
        with pytest.raises(ValueError, match="unique"):
            FleetSpec(stations=(station, station))

    @pytest.mark.parametrize("fleet", (
        (), [StationSpec("solo", 3.0, 0.0)],
        {"stations": [StationSpec("solo", 3.0, 0.0).to_dict()]}))
    def test_takes_only_a_fleet_spec(self, fleet):
        with pytest.raises(TypeError, match="FleetSpec"):
            DenseDeployment(fleet)

    def test_station_lookup(self, deployment):
        assert deployment.station("tilted").orientation_deg == 80.0
        with pytest.raises(KeyError):
            deployment.station("missing")

    def test_station_validation(self):
        with pytest.raises(ValueError):
            StationSpec("bad", 0.0, 0.0)
        with pytest.raises(ValueError):
            StationSpec("bad", 1.0, 0.0, traffic_demand_mbps=0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="distance"):
                StationSpec("bad", value, 0.0)
            with pytest.raises(ValueError, match="transmit power"):
                StationSpec("bad", 1.0, 0.0, tx_power_dbm=value)
            with pytest.raises(ValueError, match="traffic demand"):
                StationSpec("bad", 1.0, 0.0, traffic_demand_mbps=value)
        with pytest.raises(ValueError, match="transmit power"):
            StationSpec("bad", 1.0, 0.0, tx_power_dbm=float("-inf"))

    @pytest.mark.parametrize("field, value, message", (
        ("ap_orientation_deg", float("nan"), "AP orientation"),
        ("ap_orientation_deg", float("inf"), "AP orientation"),
        ("ap_orientation_deg", float("-inf"), "AP orientation"),
        ("frequency_hz", float("inf"), "frequency"),
        ("frequency_hz", float("nan"), "frequency"),
        ("frequency_hz", -1.0, "frequency must be positive"),
        ("frequency_hz", 0.0, "frequency must be positive"),
        ("environment_seed", -1, "environment seed"),
        ("environment_seed", True, "environment seed"),
        ("environment_seed", 1.5, "environment seed"),
        ("environment_seed", "3", "environment seed"),
    ))
    def test_field_validation(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            FleetSpec((StationSpec("solo", 3.0, 0.0),), **{field: value})

    def test_field_edges_stay_valid(self):
        deployment = FleetSpec((StationSpec("solo", 3.0, 0.0),),
                               ap_orientation_deg=-90.0,
                               environment_seed=np.int64(0)).build()
        assert deployment.spec.environment_seed == 0
        assert type(deployment.spec.environment_seed) is int
        assert deployment.spec.ap_orientation_deg == -90.0

    def test_rssi_depends_on_bias(self, deployment):
        link = deployment.link_for("orthogonal")
        low = link.received_power_dbm(15.0, 15.0)
        high = link.received_power_dbm(30.0, 0.0)
        assert high != pytest.approx(low)

    def test_best_bias_helps_mismatched_station(self, deployment):
        _vx, _vy, best_power = deployment.best_bias_per_station(
            step_v=7.5, names=["orthogonal"])
        assert best_power[0] > deployment.baseline_link_for(
            "orthogonal").received_power_dbm() + 3.0

    def test_aligned_station_baseline_already_good(self, deployment):
        aligned_baseline, orthogonal_baseline = deployment.ensemble_for(
            ["aligned", "orthogonal"], with_surface=False).measure_aligned(
                0.0, 0.0)
        assert aligned_baseline > orthogonal_baseline + 5.0

    def test_deployment_orientation_groups_pair_tilted_and_orthogonal(self, deployment):
        groups = deployment.orientation_groups(tolerance_deg=20.0)
        assert sorted(map(sorted, groups)) == [["aligned"],
                                               ["orthogonal", "tilted"]]

    def test_orientation_groups_cluster_similar_antennas(self):
        stations = [
            StationSpec("a", 3.0, 0.0),
            StationSpec("b", 3.0, 10.0),
            StationSpec("c", 3.0, 90.0),
            StationSpec("d", 3.0, 100.0),
        ]
        groups = deployment_of(stations).orientation_groups(tolerance_deg=20.0)
        assert sorted(map(sorted, groups)) == [["a", "b"], ["c", "d"]]

    def test_orientation_groups_wrap_around_180(self):
        stations = [
            StationSpec("a", 3.0, 5.0),
            StationSpec("b", 3.0, 175.0),
        ]
        groups = deployment_of(stations).orientation_groups(tolerance_deg=15.0)
        assert len(groups) == 1

    def test_random_home_reproducible(self):
        first = FleetSpec.random_home(station_count=4, seed=3).build()
        second = FleetSpec.random_home(station_count=4, seed=3).build()
        assert [s.orientation_deg for s in first.stations] == [
            s.orientation_deg for s in second.stations]

    def test_rate_uses_wifi_table(self, deployment):
        rate = wifi_rate_for_rssi_mbps(
            deployment.link_for("aligned").received_power_dbm(0.0, 0.0))
        assert 0.0 <= rate <= 54.0


class TestFairnessIndex:
    def test_equal_allocations_give_one(self):
        assert jain_fairness_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_user_monopoly(self):
        assert jain_fairness_index([10.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_all_zero_allocations_are_vacuously_fair(self):
        assert jain_fairness_index([0.0, 0.0, 0.0]) == 1.0

    def test_single_station_is_perfectly_fair(self):
        assert jain_fairness_index([7.5]) == pytest.approx(1.0)
        assert jain_fairness_index([0.0]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_fairness_index([])
        with pytest.raises(ValueError):
            jain_fairness_index([-1.0, 2.0])


def _allocation(name="solo", rate=54.0, airtime=1.0):
    return StationAllocation(station=name, bias_pair=(0.0, 0.0),
                             rssi_dbm=-40.0, rate_mbps=rate,
                             airtime_fraction=airtime)


class TestScheduleResultEdges:
    def test_empty_epoch_is_degenerate_but_defined(self):
        empty = ScheduleResult(scheduler_name="empty", allocations=(),
                               retune_count=0, retune_overhead_fraction=0.0)
        assert empty.total_throughput_mbps == 0.0
        assert empty.fairness == 1.0
        assert empty.worst_station_rate_mbps == 0.0

    def test_single_station_epoch(self):
        result = ScheduleResult(scheduler_name="solo",
                                allocations=(_allocation(),),
                                retune_count=1,
                                retune_overhead_fraction=0.1)
        assert result.total_throughput_mbps == pytest.approx(54.0 * 0.9)
        assert result.fairness == pytest.approx(1.0)
        assert result.worst_station_rate_mbps == 54.0

    def test_zero_rate_allocations_give_zero_throughput(self):
        result = ScheduleResult(
            scheduler_name="down",
            allocations=(_allocation("a", rate=0.0, airtime=0.5),
                         _allocation("b", rate=0.0, airtime=0.5)),
            retune_count=0, retune_overhead_fraction=0.0)
        assert result.total_throughput_mbps == 0.0
        assert result.fairness == 1.0
        assert result.worst_station_rate_mbps == 0.0

    def test_total_throughput_is_the_fresh_sum_computed_once(self):
        result = PolarizationReuseScheduler(small_deployment()).schedule()
        fresh = (sum(allocation.throughput_mbps
                     for allocation in result.allocations)
                 * (1.0 - result.retune_overhead_fraction))
        encoded = encode(result)
        total = result.total_throughput_mbps
        assert total == fresh
        assert result.total_throughput_mbps is total
        # The cached total is not a field: equality and artifacts ignore it.
        assert encode(result) == encoded
        assert result == dataclasses.replace(result)

    def test_allocation_for_miss_raises_clear_key_error(self):
        result = ScheduleResult(scheduler_name="solo",
                                allocations=(_allocation(),),
                                retune_count=0,
                                retune_overhead_fraction=0.0)
        assert result.allocation_for("solo").station == "solo"
        with pytest.raises(KeyError, match="no allocation for station "
                                           "'ghost'"):
            result.allocation_for("ghost")


class TestSchedulers:
    @pytest.fixture(scope="class")
    def results(self):
        deployment = small_deployment()
        return {
            "baseline": baseline_without_surface(deployment),
            "fixed": FixedBiasScheduler(deployment).schedule(),
            "per_station": PerStationScheduler(deployment).schedule(),
            "reuse": PolarizationReuseScheduler(deployment).schedule(),
        }

    def test_every_scheduler_covers_every_station(self, results):
        for result in results.values():
            assert len(result.allocations) == 3

    def test_surface_schedulers_beat_no_surface(self, results):
        baseline = results["baseline"].total_throughput_mbps
        for key in ("per_station", "reuse"):
            assert results[key].total_throughput_mbps > baseline

    def test_per_station_has_highest_raw_rates(self, results):
        per_station = results["per_station"]
        for other_key in ("fixed", "reuse"):
            other = results[other_key]
            for allocation in per_station.allocations:
                assert allocation.rate_mbps >= other.allocation_for(
                    allocation.station).rate_mbps - 1e-9

    def test_reuse_retunes_less_than_per_station(self, results):
        assert results["reuse"].retune_count < results["per_station"].retune_count

    def test_overhead_fraction_reflects_retunes(self, results):
        assert results["per_station"].retune_overhead_fraction > \
            results["fixed"].retune_overhead_fraction

    def test_fairness_improves_with_surface(self, results):
        assert results["per_station"].fairness >= results["baseline"].fairness

    def test_worst_station_served_better_with_surface(self, results):
        assert (results["per_station"].worst_station_rate_mbps >=
                results["baseline"].worst_station_rate_mbps)

    def test_allocation_lookup(self, results):
        allocation = results["fixed"].allocation_for("aligned")
        assert allocation.station == "aligned"
        with pytest.raises(KeyError):
            results["fixed"].allocation_for("missing")

    def test_scheduler_validation(self):
        deployment = small_deployment()
        with pytest.raises(ValueError):
            FixedBiasScheduler(deployment, epoch_duration_s=0.0)
        with pytest.raises(ValueError):
            PolarizationReuseScheduler(deployment, orientation_tolerance_deg=0.0)


class TestAccessControl:
    def test_isolation_improves_over_baseline(self):
        deployment = small_deployment()
        result = polarization_access_control(deployment, "orthogonal", "aligned",
                                             step_v=6.0)
        assert result.isolation_improvement_db > 3.0

    def test_minimum_rssi_constraint_respected(self):
        deployment = small_deployment()
        unconstrained = polarization_access_control(deployment, "orthogonal",
                                                    "aligned", step_v=6.0)
        constrained = polarization_access_control(
            deployment, "orthogonal", "aligned", step_v=6.0,
            minimum_intended_rssi_dbm=unconstrained.intended_rssi_dbm - 1.0)
        assert constrained.intended_rssi_dbm >= \
            unconstrained.intended_rssi_dbm - 1.0

    def test_impossible_constraint_rejected(self):
        deployment = small_deployment()
        with pytest.raises(ValueError):
            polarization_access_control(deployment, "orthogonal", "aligned",
                                        step_v=10.0,
                                        minimum_intended_rssi_dbm=50.0)

    def test_same_station_rejected(self):
        deployment = small_deployment()
        with pytest.raises(ValueError):
            polarization_access_control(deployment, "aligned", "aligned")

    def test_unknown_station_rejected(self):
        deployment = small_deployment()
        with pytest.raises(KeyError):
            polarization_access_control(deployment, "aligned", "missing")


class TestOrientationGroupBoundaries:
    """Tolerance-boundary behaviour of the polarization-reuse clusters."""

    @staticmethod
    def _groups(orientations, tolerance_deg):
        stations = [StationSpec(f"s{i}", 3.0, orientation)
                    for i, orientation in enumerate(orientations)]
        return deployment_of(stations).orientation_groups(tolerance_deg)

    def test_difference_exactly_at_tolerance_shares_a_group(self):
        assert self._groups([0.0, 20.0], tolerance_deg=20.0) == [["s0", "s1"]]

    def test_difference_just_above_tolerance_splits(self):
        assert self._groups([0.0, 20.0 + 1e-9], tolerance_deg=20.0) == [
            ["s0"], ["s1"]]

    def test_wraparound_difference_exactly_at_tolerance(self):
        # 170 deg vs 5 deg is a 15 deg wrap-around difference.
        assert self._groups([5.0, 170.0], tolerance_deg=15.0) == [
            ["s0", "s1"]]
        assert self._groups([5.0, 170.0], tolerance_deg=14.999) == [
            ["s0"], ["s1"]]

    def test_anchor_is_the_first_member_not_the_running_mean(self):
        # s1 joins s0 (within 20), s2 is 30 from the anchor s0 even
        # though it is within 20 of s1 -> new group.
        assert self._groups([0.0, 20.0, 30.0], tolerance_deg=20.0) == [
            ["s0", "s1"], ["s2"]]

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            self._groups([0.0], tolerance_deg=0.0)


class TestLinkCaching:
    """Per-station links and ensembles are built once and reused."""

    def test_link_for_returns_the_same_object(self):
        deployment = small_deployment()
        assert deployment.link_for("aligned") is deployment.link_for("aligned")
        assert (deployment.baseline_link_for("aligned")
                is deployment.baseline_link_for("aligned"))

    def test_scalar_probes_do_not_rebuild_links(self, monkeypatch):
        deployment = small_deployment()
        calls = []
        original = deployment._configuration

        def counting(station, with_surface):
            calls.append((station.name, with_surface))
            return original(station, with_surface)

        monkeypatch.setattr(deployment, "_configuration", counting)
        for _ in range(5):
            deployment.link_for("aligned").received_power_dbm(7.0, 22.0)
            deployment.baseline_link_for("aligned").received_power_dbm()
        # One with-surface and one baseline construction, ever.
        assert calls == [("aligned", True), ("aligned", False)]

    def test_subset_ensembles_are_row_views_of_the_fleet(self):
        deployment = small_deployment()
        full = deployment.ensemble_for()
        assert deployment.ensemble_for() is full
        assert deployment.ensemble_for(deployment.station_names) is full
        names = ["tilted", "aligned", "tilted"]
        subset = deployment.ensemble_for(names)
        assert subset.link is full.link
        levels = np.arange(0.0, 30.1, 10.0)
        rows = [deployment.station_index(name) for name in names]
        assert np.allclose(
            subset.measure_aligned(levels[None], levels[::-1][None]),
            full.measure_aligned(levels[None], levels[::-1][None])[rows],
            atol=1e-9, rtol=0.0)
        selections = [selection for length in (1, 2, 3, 4) for selection
                      in itertools.product(deployment.station_names,
                                           repeat=length)][:50]
        for selection in selections:
            deployment.ensemble_for(selection)
            deployment.ensemble_for(selection, with_surface=False)
        assert len(deployment._ensembles) <= 2
        with pytest.raises(KeyError, match="missing"):
            deployment.ensemble_for(["aligned", "missing"])
        assert deployment.ensemble_for([]).measure_aligned(
            levels[None], levels[None]).shape == (0, levels.size)

    def test_environment_and_ap_antenna_are_shared(self):
        deployment = small_deployment()
        first = deployment.link_for("aligned").configuration
        second = deployment.link_for("tilted").configuration
        assert first.environment is second.environment
        assert first.rx_antenna is second.rx_antenna


class TestStackedPlanes:
    """The fleet-stacked deployment planes match the per-station shims."""

    def test_lattice_rows_match_scalar_probes(self, deployment):
        levels = np.arange(0.0, 30.1, 10.0)
        vx, vy = np.meshgrid(levels, levels, indexing="ij")
        stacked = deployment.ensemble_for().measure_aligned(vx[None], vy[None])
        assert stacked.shape == (3,) + vx.shape
        for index, station in enumerate(deployment.stations):
            link = deployment.link_for(station.name)
            for i in range(vx.shape[0]):
                for j in range(vx.shape[1]):
                    assert stacked[index, i, j] == pytest.approx(
                        link.received_power_dbm(float(vx[i, j]),
                                                float(vy[i, j])), abs=1e-9)

    def test_baseline_vector_matches_scalar_baselines(self, deployment):
        baseline = deployment.ensemble_for(
            with_surface=False).measure_aligned(0.0, 0.0)
        for index, station in enumerate(deployment.stations):
            assert baseline[index] == pytest.approx(
                deployment.baseline_link_for(station.name).received_power_dbm(),
                abs=1e-9)

    def test_best_bias_per_station_matches_single_station_search(
            self, deployment):
        vx, vy, power = deployment.best_bias_per_station(step_v=7.5)
        for index, station in enumerate(deployment.stations):
            single = deployment.best_bias_per_station(step_v=7.5,
                                                      names=[station.name])
            assert (float(vx[index]), float(vy[index])) == (
                float(single[0][0]), float(single[1][0]))
            assert float(power[index]) == pytest.approx(float(single[2][0]),
                                                        abs=1e-9)

    def test_step_validation(self, deployment):
        with pytest.raises(ValueError):
            deployment.best_bias_per_station(step_v=0.0)
        with pytest.raises(ValueError):
            deployment.compromise_bias(step_v=-1.0)

    def test_unknown_station_in_subset_rejected(self, deployment):
        with pytest.raises(KeyError):
            deployment.ensemble_for(["missing"]).measure_aligned(0.0, 0.0)

    def test_single_station_rows_match_scalar_probes(self, deployment):
        levels = np.arange(0.0, 30.1, 10.0)
        rssi = deployment.ensemble_for(["tilted"]).measure_aligned(
            levels[None], levels[None])[0]
        rates = wifi_rate_for_rssi_mbps(rssi)
        link = deployment.link_for("tilted")
        for index, level in enumerate(levels):
            scalar = link.received_power_dbm(level, level)
            assert rssi[index] == pytest.approx(scalar, abs=1e-9)
            assert rates[index] == wifi_rate_for_rssi_mbps(scalar)
