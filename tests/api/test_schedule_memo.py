"""The epoch memo of :meth:`FleetSession.schedule`.

An epoch is a pure function of the deployment, the survivor set and the
schedule arguments, so a session answers a repeat from its memo with no
budget-engine pass.  These tests count passes with
:func:`probe_evaluations` (no clock): a hit is 0 passes, every survivor
change forces one fresh pass, a different argument the strategy reads
misses while one it ignores hits, hits still refresh the last-known-good
bias pairs, and invalid arguments raise for every strategy on every call
without being stored.
"""

import math

import pytest

from repro.api.fleet import SCHEDULE_STRATEGIES, FleetSession, FleetSpec
from repro.channel.link import probe_evaluations
from repro.network.scheduler import PolarizationReuseScheduler

SURFACE_STRATEGIES = ("fixed-bias", "per-station", "polarization-reuse")


@pytest.fixture
def fleet():
    session = FleetSession(FleetSpec.office(12, seed=5))
    # Several orientation groups, so strategies pick different pairs.
    assert len(session.orientation_groups(20.0)) > 1
    return session


def passes(fleet, strategy="polarization-reuse", **kwargs):
    """``(budget passes, result)`` of one ``schedule`` call."""
    before = probe_evaluations()
    result = fleet.schedule(strategy, **kwargs)
    return probe_evaluations() - before, result


def last_known_good(fleet):
    return {name: fleet.last_known_good_bias(name)
            for name in fleet.station_names}


def pairs_of(result):
    return {allocation.station: allocation.bias_pair
            for allocation in result.allocations}


class TestHits:
    def test_repeat_is_free_and_identical(self, fleet):
        count, first = passes(fleet)
        assert count == 1
        count, again = passes(fleet)
        assert count == 0
        assert again is first

    def test_hit_refreshes_last_known_good(self, fleet):
        """A, B, A: the third call (a hit) leaves A's pairs behind."""
        count_a, first = passes(fleet, "fixed-bias")
        count_b, other = passes(fleet, "per-station")
        assert pairs_of(first) != pairs_of(other)
        assert last_known_good(fleet) == pairs_of(other)
        count_again, again = passes(fleet, "fixed-bias")
        assert (count_a, count_b, count_again) == (1, 1, 0)
        assert again is first
        assert last_known_good(fleet) == pairs_of(first)

    def test_no_surface_is_memoized_and_leaves_last_known_good(self, fleet):
        assert passes(fleet, "no-surface")[0] == 1
        assert passes(fleet, "no-surface")[0] == 0
        assert set(last_known_good(fleet).values()) == {None}
        _, surface = passes(fleet, "per-station")
        assert passes(fleet, "no-surface")[0] == 0
        assert last_known_good(fleet) == pairs_of(surface)

    @pytest.mark.parametrize("kwargs", [
        {"epoch_duration_s": 30.0},
        {"bias_search_step_v": 2.5},
        {"orientation_tolerance_deg": 10.0},
    ])
    def test_other_arguments_miss(self, fleet, kwargs):
        _, default = passes(fleet)
        count, result = passes(fleet, **kwargs)
        assert count == 1
        assert result is not default
        assert result == FleetSession(fleet.spec).schedule(
            "polarization-reuse", **kwargs)
        # Both entries stay memoized.
        assert passes(fleet)[0] == 0
        assert passes(fleet, **kwargs)[0] == 0


    @pytest.mark.parametrize("strategy,kwargs", [
        ("no-surface", {"epoch_duration_s": 30.0}),
        ("no-surface", {"bias_search_step_v": 2.5}),
        ("no-surface", {"orientation_tolerance_deg": 10.0}),
        ("fixed-bias", {"orientation_tolerance_deg": 10.0}),
        ("per-station", {"orientation_tolerance_deg": 10.0}),
    ])
    def test_arguments_the_strategy_ignores_hit(self, fleet, strategy,
                                                kwargs):
        _, first = passes(fleet, strategy)
        count, again = passes(fleet, strategy, **kwargs)
        assert count == 0
        assert again is first
        assert len(fleet._epochs) == 1


class TestSurvivorChanges:
    #: Survivor changes applied to a fleet missing its station 1.
    CHANGES = {
        "quarantine": lambda fleet: fleet.quarantine(fleet.station_names[0]),
        "reinstate": lambda fleet: fleet.reinstate(fleet.station_names[1]),
        "churn": lambda fleet: fleet.apply_churn(fleet.station_names[2:]),
    }

    @pytest.mark.parametrize("change", CHANGES)
    def test_change_forces_one_fresh_pass(self, fleet, change):
        fleet.quarantine(fleet.station_names[1])
        assert passes(fleet)[0] == 1
        self.CHANGES[change](fleet)
        count, result = passes(fleet)
        assert count == 1
        assert ([allocation.station for allocation in result.allocations]
                == list(fleet.active_stations))
        fresh = FleetSession(fleet.spec)
        fresh.apply_churn(fleet.active_stations)
        assert result == fresh.schedule()
        assert passes(fleet)[0] == 0

    def test_unchanged_survivors_keep_the_memo(self, fleet):
        survivors = fleet.quarantine(fleet.station_names[0])
        assert passes(fleet)[0] == 1
        # Idempotent calls leave the survivor set (and the memo) alone.
        fleet.quarantine(fleet.station_names[0])
        fleet.reinstate(fleet.station_names[1])
        assert fleet.apply_churn(survivors) == survivors
        assert passes(fleet)[0] == 0

    def test_round_trip_recomputes_the_same_epoch(self, fleet):
        _, before = passes(fleet)
        fleet.quarantine(fleet.station_names[0])
        fleet.reinstate(fleet.station_names[0])
        count, after = passes(fleet)
        assert count == 1
        assert after == before


class TestTypedErrors:
    @pytest.mark.parametrize("kwargs", [
        {"epoch_duration_s": math.nan},
        {"epoch_duration_s": math.inf},
        {"epoch_duration_s": -math.inf},
        {"epoch_duration_s": 0.0},
        {"orientation_tolerance_deg": math.nan},
        {"orientation_tolerance_deg": -1.0},
        {"bias_search_step_v": math.nan},
    ])
    def test_invalid_arguments_raise_on_every_call(self, fleet, kwargs):
        _, valid = passes(fleet)
        for _attempt in range(2):
            with pytest.raises(ValueError):
                fleet.schedule("polarization-reuse", **kwargs)
        assert passes(fleet) == (0, valid)

    def test_empty_epoch_still_validates(self, fleet):
        """No station left to probe does not let a bad argument through."""
        fleet.quarantine(*fleet.station_names)
        for kwargs in ({"epoch_duration_s": math.inf},
                       {"bias_search_step_v": math.nan},
                       {"orientation_tolerance_deg": math.nan}):
            with pytest.raises(ValueError):
                fleet.schedule("polarization-reuse", **kwargs)

    @pytest.mark.parametrize("strategy", SCHEDULE_STRATEGIES)
    @pytest.mark.parametrize("kwargs,message", [
        ({"epoch_duration_s": math.nan}, "epoch duration must be positive"),
        ({"bias_search_step_v": math.inf}, "bias search step must be"),
        ({"orientation_tolerance_deg": math.nan},
         "orientation tolerance must be positive"),
    ])
    def test_every_strategy_validates_every_argument(self, fleet, strategy,
                                                     kwargs, message):
        for _attempt in range(3):
            with pytest.raises(ValueError, match=message):
                fleet.schedule(strategy, **kwargs)
        assert fleet._epochs == {}

    def test_unknown_strategy_raises_on_every_call(self, fleet):
        passes(fleet)
        for _attempt in range(2):
            with pytest.raises(ValueError, match="unknown scheduling"):
                fleet.schedule("round-robin")

    @pytest.mark.parametrize("strategy", SURFACE_STRATEGIES)
    def test_every_surface_strategy_rejects_non_finite_epochs(self, fleet,
                                                              strategy):
        passes(fleet, strategy)
        for duration in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                fleet.schedule(strategy, epoch_duration_s=duration)

    def test_nan_tolerance_rejected(self, fleet):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            PolarizationReuseScheduler(fleet.deployment,
                                       orientation_tolerance_deg=math.nan)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            fleet.orientation_groups(math.nan)
