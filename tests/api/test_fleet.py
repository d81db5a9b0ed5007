"""Fleet API suite: stacked parity, scheduling identity, spec round-trips.

Pins the station-stacked planes of :class:`FleetSession` against looped
per-station :class:`LinkSession` probes to <= 1e-9 dB, the scheduler
results through the fleet facade against the scheduler classes, and the
declarative :class:`FleetSpec` layer (validation, JSON round-trip,
round-tripped specs producing identical ``ScheduleResult``s).
"""

import json
import math

import numpy as np
import pytest

from repro.api import (
    SCHEDULE_STRATEGIES,
    SURFACE_DESIGNS,
    FleetSession,
    FleetSpec,
    LinkSession,
    ProbeGrid,
    StationSpec,
)
from repro.devices.wifi import wifi_rate_for_rssi_mbps
from repro.network.scheduler import (
    FixedBiasScheduler,
    PerStationScheduler,
    PolarizationReuseScheduler,
    baseline_without_surface,
)

TOLERANCE_DB = 1e-9

LEVELS = np.arange(0.0, 30.1, 6.0)
VX_GRID, VY_GRID = np.meshgrid(LEVELS, LEVELS, indexing="ij")

#: ``(field, value, message)``: scalar deployment fields that must fail
#: at construction (NaN orientation used to build a fleet that probed
#: NaN power everywhere; the rest failed only at ``build()``).
BAD_DEPLOYMENT_FIELDS = (
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
)


def cliff_spec() -> FleetSpec:
    """Far, low-power stations with mixed orientations (rate-cliff regime)."""
    return FleetSpec(stations=(
        StationSpec("aligned", 10.0, 0.0, tx_power_dbm=0.0),
        StationSpec("tilted", 14.0, 80.0, tx_power_dbm=0.0),
        StationSpec("orthogonal", 12.0, 90.0, tx_power_dbm=0.0),
        StationSpec("skewed", 11.0, 40.0, tx_power_dbm=-3.0),
    ))


@pytest.fixture(scope="module")
def fleet():
    return FleetSession(cliff_spec())


def looped_session(fleet, name) -> LinkSession:
    """The migration-era idiom: one LinkSession per station, in a loop."""
    deployment = fleet.deployment
    return LinkSession(deployment._configuration(deployment.station(name),
                                                 with_surface=True))


class TestStackedParity:
    """measure_aligned stacks stations; each row equals a looped session."""

    def test_shared_lattice_shape_and_parity(self, fleet):
        stacked = fleet.measure_aligned(VX_GRID[None], VY_GRID[None])
        assert stacked.shape == (fleet.station_count,) + VX_GRID.shape
        for index, name in enumerate(fleet.station_names):
            looped = looped_session(fleet, name).measure_grid(
                ProbeGrid.aligned(vx=VX_GRID, vy=VY_GRID))
            assert np.max(np.abs(stacked[index] - looped)) <= TOLERANCE_DB

    def test_scalar_voltages(self, fleet):
        stacked = fleet.measure_aligned(7.0, 22.0)
        assert stacked.shape == (fleet.station_count,)
        for index, name in enumerate(fleet.station_names):
            assert stacked[index] == pytest.approx(
                fleet.deployment.link_for(name).received_power_dbm(7.0, 22.0),
                abs=TOLERANCE_DB)

    def test_station_subset_selects_and_orders(self, fleet):
        subset = ("orthogonal", "aligned")
        stacked = fleet.measure_aligned(VX_GRID[None], VY_GRID[None],
                                        stations=subset)
        full = fleet.measure_aligned(VX_GRID[None], VY_GRID[None])
        for row, name in enumerate(subset):
            assert np.array_equal(stacked[row],
                                  full[fleet.station_index(name)])

    def test_baseline_parity(self, fleet):
        baseline = fleet.baseline_ensemble.measure_aligned(0.0, 0.0)
        for index, name in enumerate(fleet.station_names):
            assert baseline[index] == pytest.approx(
                fleet.deployment.baseline_link_for(name).received_power_dbm(),
                abs=TOLERANCE_DB)

    def test_measure_aligned_is_per_station_bias(self, fleet):
        vx = np.array([0.0, 7.0, 30.0, 12.0])
        vy = np.array([2.0, 22.0, 0.0, 12.0])
        aligned = fleet.measure_aligned(vx, vy)
        assert aligned.shape == (fleet.station_count,)
        for index, name in enumerate(fleet.station_names):
            assert aligned[index] == pytest.approx(
                fleet.deployment.link_for(name).received_power_dbm(
                    float(vx[index]), float(vy[index])),
                abs=TOLERANCE_DB)

    def test_rates_apply_the_wifi_table(self, fleet):
        rates = wifi_rate_for_rssi_mbps(
            fleet.measure_aligned(VX_GRID[None], VY_GRID[None]))
        assert rates.shape == (fleet.station_count,) + VX_GRID.shape
        assert np.all((rates >= 0.0) & (rates <= 54.0))

    def test_unknown_station_rejected(self, fleet):
        with pytest.raises(KeyError):
            fleet.measure_aligned(0.0, 0.0, stations=["missing"])
        with pytest.raises(KeyError):
            fleet.station_index("missing")


@pytest.mark.parametrize("probe", [
    lambda fleet: fleet.measure_aligned(0.0, 0.0, stations="station-1"),
    lambda fleet: fleet.probe_aligned(0.0, 0.0, stations="station-1"),
    lambda fleet: fleet.optimize_grid(stations="station-1"),
    lambda fleet: fleet.deployment.best_bias_per_station(names="station-1"),
], ids=["measure_aligned", "probe_aligned", "optimize_grid",
        "best_bias_per_station"])
def test_bare_station_name_is_a_type_error(probe):
    fleet = FleetSession(FleetSpec.random_home(station_count=3))
    with pytest.raises(TypeError, match="'station-1'"):
        probe(fleet)


class TestStackedSearches:
    """Stacked Algorithm 1 / grid searches equal their per-station runs."""

    def test_optimize_grid_matches_per_station_optimize(self, fleet):
        result = fleet.optimize_grid()
        assert result.best_power_dbm.shape == (fleet.station_count,)
        for index, name in enumerate(fleet.station_names):
            session = looped_session(fleet, name)
            scalar = session.controller.optimize(session.backend)
            assert float(result.best_vx[index]) == pytest.approx(scalar.best_vx)
            assert float(result.best_vy[index]) == pytest.approx(scalar.best_vy)
            assert float(result.best_power_dbm[index]) == pytest.approx(
                scalar.best_power_dbm, abs=TOLERANCE_DB)

    def test_optimize_grid_station_subset_equals_those_rows(self, fleet):
        full = fleet.optimize_grid()
        names = ["skewed", "aligned", "skewed", "tilted"]
        subset = fleet.optimize_grid(stations=names)
        rows = [fleet.station_index(name) for name in names]
        assert np.array_equal(subset.best_vx, full.best_vx[rows])
        assert np.array_equal(subset.best_vy, full.best_vy[rows])
        assert np.allclose(subset.best_power_dbm, full.best_power_dbm[rows],
                           atol=TOLERANCE_DB, rtol=0.0)

    def test_optimize_grid_rejects_quarantined_and_unknown_stations(self):
        fleet = FleetSession(cliff_spec())
        fleet.quarantine("tilted")
        with pytest.raises(ValueError, match="quarantined"):
            fleet.optimize_grid(stations=["aligned", "tilted"])
        with pytest.raises(KeyError, match="missing"):
            fleet.optimize_grid(stations=["aligned", "missing"])

    def test_best_bias_plan_matches_single_station_search(self, fleet):
        plan = fleet.best_bias_plan(step_v=6.0)
        assert plan.station_names == fleet.station_names
        for name in fleet.station_names:
            vx, vy, power = fleet.deployment.best_bias_per_station(
                step_v=6.0, names=[name])
            assert plan.bias_for(name) == (float(vx[0]), float(vy[0]))
            assert plan.power_for(name) == pytest.approx(float(power[0]),
                                                         abs=TOLERANCE_DB)

    def test_bias_plan_rows_iterate_in_station_order(self, fleet):
        plan = fleet.best_bias_plan(step_v=10.0)
        rows = list(plan)
        assert [row[0] for row in rows] == list(fleet.station_names)

    def test_compromise_bias_matches_looped_summed_rate(self, fleet):
        from repro.core.controller import vectorized_grid_max

        step = 6.0
        names = fleet.station_names

        def summed_rate(vx_flat, vy_flat):
            utility = np.zeros(vx_flat.shape)
            for name in names:
                looped = looped_session(fleet, name).measure_grid(
                    ProbeGrid.aligned(vx=vx_flat, vy=vy_flat))
                utility += np.asarray(wifi_rate_for_rssi_mbps(looped))
            return utility

        levels = np.arange(0.0, 30.0 + 0.5 * step, step)
        vx_flat, vy_flat, _utility, best = vectorized_grid_max(
            levels, levels, summed_rate)
        assert fleet.compromise_bias(step_v=step) == (
            float(vx_flat[best]), float(vy_flat[best]))


class TestSchedulingIdentity:
    """The fleet facade and the scheduler classes agree exactly."""

    @pytest.mark.parametrize("strategy,scheduler_factory", [
        ("fixed-bias", FixedBiasScheduler),
        ("per-station", PerStationScheduler),
        ("polarization-reuse", PolarizationReuseScheduler),
    ])
    def test_schedule_matches_scheduler_classes(self, fleet, strategy,
                                                scheduler_factory):
        via_fleet = fleet.schedule(strategy, epoch_duration_s=120.0)
        direct = scheduler_factory(fleet.deployment,
                                   epoch_duration_s=120.0).schedule()
        assert via_fleet == direct

    def test_no_surface_strategy_matches_baseline(self, fleet):
        assert fleet.schedule("no-surface") == baseline_without_surface(
            fleet.deployment)

    def test_schedule_all_covers_every_strategy(self, fleet):
        results = fleet.schedule_all(epoch_duration_s=120.0)
        assert set(results) == set(SCHEDULE_STRATEGIES)

    def test_unknown_strategy_rejected(self, fleet):
        with pytest.raises(ValueError, match="unknown scheduling strategy"):
            fleet.schedule("round-robin")

    def test_access_control_delegates_to_network_layer(self, fleet):
        from repro.network.access_control import polarization_access_control
        via_fleet = fleet.access_control("orthogonal", "aligned", step_v=6.0)
        direct = polarization_access_control(fleet.deployment, "orthogonal",
                                             "aligned", step_v=6.0)
        assert via_fleet == direct


class TestFleetSpec:
    def test_round_trip_dict_and_json(self):
        spec = FleetSpec.random_home(station_count=5, seed=3)
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_round_tripped_spec_schedules_identically(self):
        spec = cliff_spec()
        twin = FleetSpec.from_dict(spec.to_dict())
        original = FleetSession(spec).schedule("polarization-reuse")
        rebuilt = FleetSession(twin).schedule("polarization-reuse")
        assert original == rebuilt

    def test_station_spec_round_trip(self):
        spec = StationSpec("sensor", 4.5, 30.0, tx_power_dbm=2.0,
                           traffic_demand_mbps=1.5)
        assert StationSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one station"):
            FleetSpec(stations=())
        station = StationSpec("dup", 3.0, 0.0)
        with pytest.raises(ValueError, match="unique"):
            FleetSpec(stations=(station, station))
        with pytest.raises(ValueError, match="unknown surface design"):
            FleetSpec(stations=(station,), surface="graphene")
        with pytest.raises(ValueError):
            StationSpec("bad", 0.0, 0.0)
        with pytest.raises(ValueError):
            StationSpec("bad", 1.0, 0.0, traffic_demand_mbps=0.0)
        for field, message in (("distance_m", "distance"),
                               ("tx_power_dbm", "transmit power"),
                               ("traffic_demand_mbps", "traffic demand")):
            for value in (float("nan"), float("inf")):
                data = StationSpec("bad", 3.0, 0.0).to_dict()
                data[field] = value
                with pytest.raises(ValueError, match=message):
                    StationSpec.from_dict(data)
                with pytest.raises(ValueError, match=message):
                    FleetSpec.from_dict({"stations": [data]})

    @pytest.mark.parametrize("record", [
        {"name": "a", "distance_m": 3.0, "orientation_deg": 0.0}, "a", None])
    def test_station_record_must_be_a_station_spec(self, record):
        good = StationSpec("b", 3.0, 0.0)
        with pytest.raises(TypeError, match="StationSpec") as raised:
            FleetSpec(stations=(good, record))
        assert repr(record) in str(raised.value)

    def test_unknown_station_key_is_named(self):
        data = {**StationSpec("a", 3.0, 0.0).to_dict(), "gain_dbi": 2.0}
        with pytest.raises(ValueError, match="gain_dbi"):
            StationSpec.from_dict(data)
        with pytest.raises(ValueError, match="unknown station field"):
            FleetSpec.from_json(json.dumps({"stations": [data]}))

    @pytest.mark.parametrize("name, orientation, error, message", [
        (5, "north", TypeError, "station name must be a string"),
        (5, 0.0, TypeError, "station name must be a string"),
        (None, 0.0, TypeError, "station name must be a string"),
        ("a", "north", TypeError, "orientation must be a real number"),
        ("a", None, TypeError, "orientation must be a real number"),
        ("a", True, TypeError, "orientation must be a real number"),
    ])
    def test_bad_station_name_or_orientation_rejected(self, name, orientation,
                                                      error, message):
        with pytest.raises(error, match=message):
            StationSpec(name, 3.0, orientation)
        document = json.dumps({"stations": [
            {"name": name, "distance_m": 3.0, "orientation_deg": orientation}]})
        with pytest.raises(error, match=message):
            FleetSpec.from_json(document)

    def test_non_finite_orientation_rejected(self):
        """A station's orientation is finite, like the AP's."""
        for orientation in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="orientation must be finite"):
                StationSpec("a", 3.0, orientation)
            document = json.dumps({"stations": [
                {"name": "a", "distance_m": 3.0,
                 "orientation_deg": orientation}]})
            with pytest.raises(ValueError, match="orientation must be finite"):
                FleetSpec.from_json(document)

    @pytest.mark.parametrize("orientation", [
        -720.5, 0, 179.99, 1e6, np.float32(45.0), np.int64(90)])
    def test_any_finite_real_orientation_stays_valid(self, orientation):
        station = StationSpec("a", 3.0, orientation)
        assert station.orientation_deg == orientation

    def test_misspelt_fleet_key_is_named(self):
        document = json.loads(
            FleetSpec(stations=(StationSpec("a", 3.0, 0.0),)).to_json())
        document["surfce"] = document.pop("surface")
        with pytest.raises(ValueError, match=r"unknown fleet field.*surfce"):
            FleetSpec.from_json(json.dumps(document))

    def test_missing_required_key_is_named(self):
        data = StationSpec("a", 3.0, 0.0).to_dict()
        del data["orientation_deg"]
        with pytest.raises(ValueError,
                           match=r"missing station field.*orientation_deg"):
            StationSpec.from_dict(data)
        with pytest.raises(ValueError,
                           match=r"missing station field.*orientation_deg"):
            FleetSpec.from_dict({"stations": [data]})
        with pytest.raises(ValueError, match=r"missing fleet field.*stations"):
            FleetSpec.from_dict({"surface": "llama"})

    @pytest.mark.parametrize("field, value, message", BAD_DEPLOYMENT_FIELDS)
    def test_bad_deployment_field_rejected(self, field, value, message):
        # At construction and from JSON, never first at ``build()``.
        station = StationSpec("solo", 3.0, 0.0)
        with pytest.raises(ValueError, match=message):
            FleetSpec(stations=(station,), **{field: value})
        document = json.loads(FleetSpec(stations=(station,)).to_json())
        with pytest.raises(ValueError, match=message):
            FleetSpec.from_json(json.dumps({**document, field: value}))

    def test_deployment_field_edges_stay_valid(self):
        station = StationSpec("solo", 3.0, 0.0)
        spec = FleetSpec(stations=(station,), ap_orientation_deg=-90.0,
                         environment_seed=np.int64(0))
        assert spec.environment_seed == 0
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_station_lookup(self):
        spec = cliff_spec()
        assert spec.station("tilted").orientation_deg == 80.0
        assert spec.station_names == ("aligned", "tilted", "orthogonal",
                                      "skewed")
        with pytest.raises(KeyError):
            spec.station("missing")

    def test_factories_are_reproducible(self):
        assert FleetSpec.random_home(4, seed=9) == FleetSpec.random_home(
            4, seed=9)
        assert FleetSpec.office(5, seed=1) == FleetSpec.office(5, seed=1)
        with pytest.raises(ValueError):
            FleetSpec.random_home(0)
        with pytest.raises(ValueError):
            FleetSpec.office(0)

    @pytest.mark.parametrize("surface", sorted(SURFACE_DESIGNS))
    def test_build_uses_the_named_surface(self, surface):
        spec = FleetSpec.random_home(station_count=2, seed=5,
                                     surface=surface)
        assert (spec.build().metasurface
                == SURFACE_DESIGNS[surface]().build())

    def test_best_bias_plan_accepts_an_iterator_of_names(self, fleet):
        plan = fleet.best_bias_plan(step_v=10.0,
                                    stations=iter(["tilted", "aligned"]))
        assert plan.station_names == ("tilted", "aligned")
        vx, vy, _power = fleet.deployment.best_bias_per_station(
            step_v=10.0, names=["tilted"])
        assert plan.bias_for("tilted") == (float(vx[0]), float(vy[0]))

    def test_build_materializes_the_described_deployment(self):
        spec = cliff_spec()
        deployment = spec.build()
        assert deployment.spec is spec
        assert deployment.station_names == spec.station_names


class TestSessionConstruction:
    def test_builds_its_deployment_from_the_spec(self):
        spec = cliff_spec()
        fleet = FleetSession(spec)
        assert fleet.spec is spec
        assert fleet.deployment.spec is spec
        assert fleet.station_names == spec.station_names

    def test_takes_only_a_fleet_spec(self):
        spec = cliff_spec()
        for other in (spec.stations, list(spec.stations), spec.build()):
            with pytest.raises(TypeError, match="FleetSpec"):
                FleetSession(other)

    def test_session_for_is_cached_and_probes_the_same_link(self, fleet):
        session = fleet.session_for("aligned")
        assert fleet.session_for("aligned") is session
        assert session.link is fleet.deployment.link_for("aligned")
        assert session.measure(7.0, 22.0) == pytest.approx(
            float(fleet.measure_aligned(7.0, 22.0, stations=["aligned"])[0]),
            abs=TOLERANCE_DB)

    def test_station_name_tuples_are_built_once(self, fleet):
        assert fleet.station_names is fleet.station_names
        assert fleet.active_stations is fleet.active_stations

    def test_active_stations_follow_quarantine_reinstate_and_churn(self):
        fleet = FleetSession(cliff_spec())
        roster = fleet.station_names
        assert fleet.active_stations == roster
        fleet.quarantine("tilted", "skewed")
        assert fleet.active_stations == ("aligned", "orthogonal")
        fleet.reinstate("skewed")
        assert fleet.active_stations == ("aligned", "orthogonal", "skewed")
        fleet.apply_churn(["tilted"])
        assert fleet.active_stations == ("tilted",)
        fleet.apply_churn(roster)
        assert fleet.active_stations == roster

    def test_ensembles_are_cached(self, fleet):
        assert fleet.ensemble is fleet.ensemble
        assert fleet.baseline_ensemble is fleet.baseline_ensemble
        assert fleet.ensemble.station_count == fleet.station_count
