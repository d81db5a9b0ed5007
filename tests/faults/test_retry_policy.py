"""RetryPolicy property suite: backoff monotonicity, jitter bounds,
deadline budget, typed classification and deterministic replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    FaultSchedule,
    HealthMonitor,
    ProbeFaultError,
    RetryPolicy,
    RetryingBackend,
    TransientFaultError,
)
from repro.channel.grid import ProbeGrid
from repro.faults.errors import DEFAULT_RETRYABLE, is_retryable
from repro.hardware.visa import VisaError

POLICIES = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 8),
    base_delay_s=st.floats(0.0, 2.0),
    backoff_factor=st.floats(1.0, 4.0),
    jitter_fraction=st.floats(0.0, 1.0),
)


class FlakyProbe:
    """Raises ``error`` for the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=TransientFaultError, value=1.25):
        self.failures = failures
        self.error = error
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error("injected")
        return self.value


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay_s": -0.1},
        {"backoff_factor": 0.5},
        {"jitter_fraction": -0.1},
        {"deadline_s": 0.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_retryable_coerced_to_tuple(self):
        policy = RetryPolicy(retryable=[ValueError])
        assert policy.retryable == (ValueError,)


class TestDelaySchedule:
    @given(policy=POLICIES)
    @settings(max_examples=100, deadline=None)
    def test_backoff_is_monotone_non_decreasing(self, policy):
        delays = policy.backoff_delays()
        assert len(delays) == policy.max_attempts - 1
        assert all(later >= earlier
                   for earlier, later in zip(delays, delays[1:]))

    @given(policy=POLICIES, attempt=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_jitter_stays_within_bounds(self, policy, attempt, seed):
        nominal = policy.nominal_delay_s(attempt)
        jittered = policy.delay_s(attempt,
                                  rng=np.random.default_rng(seed))
        assert nominal <= jittered <= nominal * (1 + policy.jitter_fraction)

    @given(policy=POLICIES, attempt=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=50, deadline=None)
    def test_delays_deterministic_under_fixed_seed(self, policy, attempt,
                                                   seed):
        assert policy.delay_s(attempt, rng=np.random.default_rng(seed)) \
            == policy.delay_s(attempt, rng=np.random.default_rng(seed))

    def test_no_rng_means_nominal(self):
        policy = RetryPolicy(base_delay_s=0.5, jitter_fraction=0.9)
        assert policy.delay_s(1) == 0.5

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().nominal_delay_s(0)


class TestExecute:
    @given(failures=st.integers(0, 7), policy=POLICIES)
    @settings(max_examples=100, deadline=None)
    def test_attempt_budget_and_waited_accounting(self, failures, policy):
        probe = FlakyProbe(failures)
        if failures >= policy.max_attempts:
            with pytest.raises(TransientFaultError):
                policy.execute(probe)
            assert probe.calls == policy.max_attempts
        else:
            outcome = policy.execute(probe)
            assert outcome.value == probe.value
            assert outcome.attempts == failures + 1
            assert outcome.retries == failures
            assert outcome.waited_s == pytest.approx(
                sum(policy.backoff_delays()[:failures]))

    @given(failures=st.integers(0, 7), policy=POLICIES,
           deadline_s=st.floats(0.01, 10.0), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_deadline_never_exceeded(self, failures, policy, deadline_s,
                                     seed):
        policy = RetryPolicy(
            max_attempts=policy.max_attempts,
            base_delay_s=policy.base_delay_s,
            backoff_factor=policy.backoff_factor,
            jitter_fraction=policy.jitter_fraction,
            deadline_s=deadline_s)
        probe = FlakyProbe(failures)
        try:
            outcome = policy.execute(probe,
                                     rng=np.random.default_rng(seed))
        except TransientFaultError:
            return
        assert outcome.waited_s <= deadline_s

    def test_deadline_reraises_instead_of_overspending(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0,
                             jitter_fraction=0.0, deadline_s=2.5)
        probe = FlakyProbe(10)
        with pytest.raises(TransientFaultError):
            policy.execute(probe)
        # 1 + 2 = 3 s would bust the 2.5 s budget at the second retry:
        # first call, one retry, then the deadline re-raise.
        assert probe.calls == 2

    def test_non_retryable_propagates_immediately(self):
        probe = FlakyProbe(3, error=KeyError)
        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=5).execute(probe)
        assert probe.calls == 1

    def test_plain_visa_error_is_not_retried(self):
        probe = FlakyProbe(1, error=VisaError)
        with pytest.raises(VisaError):
            RetryPolicy(max_attempts=5).execute(probe)
        assert probe.calls == 1

    def test_monitor_counts_retries(self):
        monitor = HealthMonitor()
        RetryPolicy(max_attempts=4).execute(FlakyProbe(2), monitor=monitor)
        assert monitor.retries == 2

    def test_call_returns_just_the_value(self):
        assert RetryPolicy().call(FlakyProbe(0, value=7.5)) == 7.5

    def test_schedule_stream_makes_jitter_replayable(self):
        policy = RetryPolicy(max_attempts=4, jitter_fraction=0.5)
        waits = []
        for _ in range(2):
            rng = FaultSchedule(seed=42).stream("retry.jitter")
            waits.append(policy.execute(FlakyProbe(2), rng=rng).waited_s)
        assert waits[0] == waits[1]


class TestClassification:
    def test_default_retryable_set(self):
        assert DEFAULT_RETRYABLE == (TransientFaultError,)
        assert is_retryable(ProbeFaultError("x"))
        assert not is_retryable(VisaError("x"))
        assert not is_retryable(ValueError("x"))

    def test_probe_fault_is_transient_runtime_error(self):
        assert issubclass(ProbeFaultError, TransientFaultError)
        assert issubclass(TransientFaultError, RuntimeError)


class _CountingBackend:
    """Minimal full-protocol backend that fails its first ``failures``
    invocations of every method."""

    def __init__(self, failures=0):
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProbeFaultError("flaky")

    def measure_grid(self, grid):
        self._maybe_fail()
        vx, vy = grid.bias_points()
        return vx + vy


class TestRetryingBackend:
    def test_every_grid_layout_recovers(self):
        grid = ProbeGrid.product(vx=np.arange(3.0), vy=np.arange(2.0))
        axis_grid = ProbeGrid.aligned(frequency=[5.0])
        monitor = HealthMonitor()
        backend = RetryingBackend(_CountingBackend(failures=1),
                                  RetryPolicy(max_attempts=3),
                                  monitor=monitor)
        assert float(backend.measure_grid(
            ProbeGrid.aligned(vx=1.0, vy=2.0))) == 3.0
        np.testing.assert_array_equal(
            backend.measure_grid(ProbeGrid.aligned(vx=[1.0], vy=[2.0])),
            [3.0])
        assert backend.measure_grid(axis_grid).shape == (1,)
        assert backend.measure_grid(grid).shape == (3, 2)
        assert monitor.probes == 4
        assert monitor.retries == 1  # only the first probe was flaky

    def test_exhaustion_reraises(self):
        backend = RetryingBackend(_CountingBackend(failures=10),
                                  RetryPolicy(max_attempts=2))
        with pytest.raises(ProbeFaultError):
            backend.measure_grid(ProbeGrid.aligned(vx=0.0, vy=0.0))

    def test_default_policy_and_infinite_deadline(self):
        backend = RetryingBackend(_CountingBackend())
        assert backend.policy.max_attempts == 3
        assert math.isinf(backend.policy.deadline_s)
