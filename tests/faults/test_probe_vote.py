"""The median-of-k probe vote equals ``np.nanmedian`` exactly.

``ProbePolicy.aggregate`` is a sort-based median; these properties hold
it to ``np.nanmedian(samples, axis=0)`` at tolerance 0 over repeat
counts 1-7, NaN dropouts (down to all-NaN columns), even valid counts
and infinities.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import ProbePolicy

# Finite values stay below 1e300: np.nanmedian's masked route for a
# short repeat axis averages an odd count's middle with itself, which
# overflows to inf above ~9e307 (pinned separately below).
VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]))


def reference(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=RuntimeWarning)
        return np.nanmedian(samples, axis=0)


def vote(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ProbePolicy(repeats=samples.shape[0]).aggregate(samples)


@st.composite
def stacks(draw):
    repeats = draw(st.integers(min_value=1, max_value=7))
    columns = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.lists(VALUES, min_size=repeats * columns,
                           max_size=repeats * columns))
    return np.asarray(values, dtype=float).reshape(repeats, columns)


class TestSortMedianVote:
    @given(stacks())
    @settings(max_examples=300)
    def test_equals_nanmedian(self, samples):
        assert np.array_equal(vote(samples), reference(samples),
                              equal_nan=True)

    @given(stacks())
    @settings(max_examples=50)
    def test_scalar_probe_stack_equals_nanmedian(self, samples):
        column = samples[:, 0]
        result = vote(column)
        assert np.ndim(result) == 0
        assert np.array_equal(result, reference(column), equal_nan=True)

    def test_grid_stack_keeps_its_shape(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(4, 3, 5))
        samples[rng.random(samples.shape) < 0.3] = np.nan
        result = vote(samples)
        assert result.shape == (3, 5)
        assert np.array_equal(result, reference(samples), equal_nan=True)

    def test_edge_columns(self):
        nan, inf = math.nan, math.inf
        samples = np.asarray([[nan, 1.0, -inf, inf, 2.0, 5.0],
                              [nan, nan, inf, inf, 4.0, nan],
                              [nan, 3.0, nan, 1.0, nan, nan],
                              [nan, nan, nan, nan, nan, nan]])
        expected = [nan, 2.0, nan, inf, 3.0, 5.0]
        assert np.array_equal(vote(samples), expected, equal_nan=True)
        assert np.array_equal(vote(samples), reference(samples),
                              equal_nan=True)

    def test_odd_middle_is_returned_unchanged(self):
        samples = np.full((3, 1), 1e308)
        assert vote(samples)[0] == 1e308
        assert vote(samples[:, 0]) == 1e308
