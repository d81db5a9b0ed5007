"""Every surface scheduler serves an epoch from one stacked lattice pass.

The schedulers read each station's bias pair, RSSI and rate off a single
``(n, k²)`` RSSI matrix of the serving stations: one
``ensemble_for(names).measure_aligned`` probe of the shared ``(1, k²)``
lattice.  These tests pin that to a reference copy of the per-group
formulation it replaced (one :meth:`DenseDeployment.compromise_bias`
probe per orientation group, or
:meth:`DenseDeployment.best_bias_per_station`, then a per-station
``(n,)`` ``measure_aligned`` probe at the chosen pairs), and gate the
work with the budget-engine counter: exactly one
:func:`probe_evaluations` delta per surface-strategy epoch (0 for a
repeat the session's epoch memo answers).  The last
class pins the same counter for every fleet probe entry point.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.devices.wifi import wifi_rate_for_rssi_mbps
from repro.network.scheduler import PolarizationReuseScheduler

SURFACE_STRATEGIES = ("fixed-bias", "per-station", "polarization-reuse")


def reference_schedule(session, strategy, step_v, tolerance_deg):
    """The per-group formulation: ``(retunes, [(name, pair, rssi, rate)])``."""
    deployment = session.deployment
    names = session.active_stations
    if not names:
        return 0, []
    if strategy == "fixed-bias":
        pair = deployment.compromise_bias(names, step_v=step_v)
        bias = {name: pair for name in names}
        retunes = 1
    elif strategy == "per-station":
        vx, vy, _power = deployment.best_bias_per_station(step_v=step_v,
                                                          names=names)
        bias = {name: (float(vx[index]), float(vy[index]))
                for index, name in enumerate(names)}
        retunes = len(names)
    else:
        serving = set(names)
        groups = [[name for name in group if name in serving]
                  for group in deployment.orientation_groups(tolerance_deg)]
        groups = [group for group in groups if group]
        bias = {}
        for group in groups:
            pair = deployment.compromise_bias(group, step_v=step_v)
            for name in group:
                bias[name] = pair
        retunes = len(groups)
    vx = np.array([bias[name][0] for name in names])
    vy = np.array([bias[name][1] for name in names])
    rssi = deployment.ensemble_for(names).measure_aligned(vx, vy)
    rates = np.asarray(wifi_rate_for_rssi_mbps(rssi), dtype=float)
    return retunes, [(name, bias[name], float(rssi[index]),
                      float(rates[index]))
                     for index, name in enumerate(names)]


def assert_matches_reference(result, reference):
    retunes, rows = reference
    assert result.retune_count == retunes
    assert [allocation.station for allocation in result.allocations] == [
        row[0] for row in rows]
    for allocation, (_name, pair, rssi, rate) in zip(result.allocations,
                                                     rows):
        assert allocation.bias_pair == pair
        assert allocation.rate_mbps == rate
        assert abs(allocation.rssi_dbm - rssi) <= 1e-9
        assert allocation.airtime_fraction == 1.0 / len(rows)


@st.composite
def fleets(draw):
    """A quarantined office fleet plus a scheduling configuration."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=1, max_value=64))
    session = FleetSession(FleetSpec.office(count, seed=seed))
    names = session.station_names
    # Any survivor subset, the empty one included.
    quarantined = draw(st.lists(st.sampled_from(names), unique=True,
                                max_size=count))
    if quarantined:
        session.quarantine(*quarantined)
    tolerance = draw(st.floats(min_value=1.0, max_value=100.0))
    step_v = draw(st.sampled_from([1.0, 2.5, 5.0, 7.5]))
    return session, tolerance, step_v


class TestParityWithPerGroupProbes:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fleet=fleets(), strategy=st.sampled_from(SURFACE_STRATEGIES))
    def test_strategy_matches_reference(self, fleet, strategy):
        session, tolerance, step_v = fleet
        result = session.schedule(strategy, bias_search_step_v=step_v,
                                  orientation_tolerance_deg=tolerance)
        assert_matches_reference(
            result, reference_schedule(session, strategy, step_v, tolerance))

    @pytest.mark.parametrize("strategy", SURFACE_STRATEGIES)
    @pytest.mark.parametrize("tolerance", [5.0, 20.0, 95.0])
    def test_storm_sized_fleet(self, strategy, tolerance):
        session = FleetSession(FleetSpec.office(200, seed=2021))
        result = session.schedule(strategy, bias_search_step_v=5.0,
                                  orientation_tolerance_deg=tolerance)
        assert_matches_reference(
            result, reference_schedule(session, strategy, 5.0, tolerance))

    def test_duplicate_serving_names_share_their_group_choice(self):
        deployment = FleetSession(FleetSpec.office(8, seed=3)).deployment
        names = deployment.station_names
        result = PolarizationReuseScheduler(
            deployment, stations=names + names[:2]).schedule()
        allocations = result.allocations
        assert len(allocations) == len(names) + 2
        for first, repeat in zip(allocations[:2], allocations[len(names):]):
            assert ((repeat.station, repeat.bias_pair, repeat.rssi_dbm,
                     repeat.rate_mbps)
                    == (first.station, first.bias_pair, first.rssi_dbm,
                        first.rate_mbps))


class TestOnePassPerEpoch:
    """The pass-count gate: one budget-engine pass per epoch."""

    @staticmethod
    def _passes(session, strategy, **kwargs):
        before = probe_evaluations()
        session.schedule(strategy, **kwargs)
        return probe_evaluations() - before

    @pytest.mark.parametrize("strategy", SURFACE_STRATEGIES)
    def test_storm_fleet_epoch_is_one_pass(self, strategy):
        session = FleetSession(FleetSpec.office(200, seed=2021))
        # Several orientation groups, so a per-group search would show.
        assert len(session.orientation_groups(20.0)) > 1
        assert self._passes(session, strategy) == 1
        # A warm deployment (ensembles cached) is still exactly one pass
        # once a survivor change has cleared the epoch memo.
        name = session.station_names[0]
        session.quarantine(name)
        session.reinstate(name)
        assert self._passes(session, strategy) == 1

    @pytest.mark.parametrize("strategy", SURFACE_STRATEGIES)
    def test_repeat_on_one_session_is_memoized(self, strategy):
        session = FleetSession(FleetSpec.office(200, seed=2021))
        first = session.schedule(strategy)
        before = probe_evaluations()
        assert session.schedule(strategy) == first
        assert probe_evaluations() - before == 0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fleet=fleets(), strategy=st.sampled_from(SURFACE_STRATEGIES))
    def test_any_fleet_epoch_is_one_pass(self, fleet, strategy):
        session, tolerance, step_v = fleet
        expected = 1 if session.active_stations else 0
        assert self._passes(session, strategy, bias_search_step_v=step_v,
                            orientation_tolerance_deg=tolerance) == expected

    def test_fully_quarantined_epoch_probes_nothing(self):
        session = FleetSession(FleetSpec.office(6, seed=11))
        session.quarantine(*session.station_names)
        for strategy in SURFACE_STRATEGIES:
            assert self._passes(session, strategy) == 0


class TestFleetProbeWorkCounts:
    """Budget passes per fleet probe entry point (the station axis leads
    every one, so none of them loops over stations or groups)."""

    ENTRY_POINTS = {
        "measure_aligned": (1, lambda fleet: fleet.measure_aligned(
            np.zeros((1, 9)), np.ones((1, 9)))),
        "probe_aligned": (1, lambda fleet: fleet.probe_aligned(
            np.arange(6.0), 3.0)),
        "best_bias_per_station": (
            1, lambda fleet: fleet.deployment.best_bias_per_station()),
        "compromise_bias": (1, lambda fleet: fleet.compromise_bias()),
        "access_control": (2, lambda fleet: fleet.access_control(
            *fleet.station_names[:2])),
        "optimize_grid": (2, lambda fleet: fleet.optimize_grid()),
        **{f"schedule[{strategy}]": (
            1, lambda fleet, strategy=strategy: fleet.schedule(strategy))
           for strategy in SURFACE_STRATEGIES + ("no-surface",)},
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_passes(self, entry):
        passes, call = self.ENTRY_POINTS[entry]
        fleet = FleetSession(FleetSpec.office(6, seed=11))
        # Several orientation groups, so a per-group probe would show.
        assert len(fleet.orientation_groups(20.0)) > 1
        before = probe_evaluations()
        call(fleet)
        assert probe_evaluations() - before == passes
