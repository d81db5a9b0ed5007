"""Ablation: sensitivity of Eq. 13 synchronization to timing offsets.

The controller attributes each received sample to a bias state purely
from timing (Eq. 13).  A start-time offset between receiver and supply
corrupts that labelling and therefore the per-state power averages the
controller ranks — which is why the offset term ``td`` appears
explicitly in the paper's expression.
"""

import numpy as np

from repro.core.synchronization import SampleVoltageSynchronizer

SWITCH_INTERVAL_S = 0.02
REPORT_RATE_HZ = 1000.0
#: The supply started 13 ms after the receiver.
TRUE_OFFSET_S = 0.013
STEPS = 16


def _labels(start_offset_s):
    sample_times = np.arange(0.0, STEPS * SWITCH_INTERVAL_S,
                             1.0 / REPORT_RATE_HZ)
    synchronizer = SampleVoltageSynchronizer(
        initial_vx=0.0, initial_vy=0.0, voltage_step_x=2.0,
        voltage_step_y=0.0, switch_interval_s=SWITCH_INTERVAL_S,
        start_offset_s=start_offset_s)
    return synchronizer.label_samples(sample_times.tolist())


def _mislabel_fraction(assumed_offset_s):
    true_labels = _labels(TRUE_OFFSET_S)
    return float(np.mean([
        assumed.step_index != actual.step_index
        for assumed, actual in zip(_labels(assumed_offset_s), true_labels)]))


def test_sync_ablation():
    # Shape: honouring the offset labels every sample correctly; ignoring a
    # 13 ms offset (over half a switch interval) mislabels a large share of
    # the capture.
    assert _mislabel_fraction(TRUE_OFFSET_S) == 0.0
    assert _mislabel_fraction(0.0) > 0.3
