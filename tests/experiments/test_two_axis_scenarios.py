"""Two-axis scenario runners: gain surface and coverage map.

The N-D grid engine's figure plane: a joint frequency x distance gain
surface (the two-axis generalisation of Figs. 16/17) and a tx-power x
distance capacity coverage map (the envelope view of Figs. 18/19),
every cell optimized by the grid-native Algorithm 1 in batched probes.
"""

import numpy as np

from repro.experiments import figures


def test_gain_surface():
    gain = figures.gain_surface_frequency_distance()
    # Shape: the surface helps across the whole joint band/distance grid,
    # most at the mismatch-dominated short range.
    assert gain.min_gain_db > 8.0
    assert gain.gain_db.shape == (len(gain.frequencies_hz),
                                  len(gain.distances_m))


def test_coverage_map():
    coverage = figures.coverage_map_txpower_distance()
    # Coverage: the surface strictly extends the operating envelope.
    assert coverage.coverage_fraction_with > coverage.coverage_fraction_without
    assert coverage.newly_covered_fraction > 0.05
    # Monotonicity: more power never shrinks coverage.
    covered_per_power = np.sum(coverage.covered_with, axis=1)
    assert np.all(np.diff(covered_per_power) >= 0)
