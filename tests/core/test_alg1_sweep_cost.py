"""Ablation: Algorithm 1 (coarse-to-fine) vs exhaustive bias sweep.

The paper motivates Algorithm 1 with the observation that a full 1 V
scan at the supply's 50 Hz switching rate takes ~30 seconds, which rules
out real-time operation; with T = 5 switches per axis and N = 2
iterations the search cost drops to 50 probes (~1 s) with negligible
loss of optimality.  ``duration_s`` is the simulated switching time of
the probes, not wall-clock time.
"""

from repro.api import LinkBackend
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.scenarios import TransmissiveScenario


def test_alg1_sweep_cost():
    backend = LinkBackend(TransmissiveScenario().link())
    controller = CentralizedController(
        VoltageSweepConfig(iterations=2, switches_per_axis=5))
    fast = controller.coarse_to_fine_sweep(backend)
    full = controller.full_sweep(backend, step_v=1.0)

    # Shape: Algorithm 1 is an order of magnitude faster and within a
    # couple of dB of the exhaustive optimum.
    assert fast.duration_s < full.duration_s / 10.0
    assert full.best_power_dbm - fast.best_power_dbm < 2.0
    assert fast.duration_s <= 1.5
