"""Multi-axis sweep engine vs scalar per-point loops (Figs. 17 and 18).

PR 1 vectorized bias-voltage grids; this benchmark records what the
multi-axis sweep engine adds on top: whole link-parameter axes —
the Fig. 17 frequency sweep and the Fig. 18 transmit-power sweep —
optimized in batched passes instead of rebuilding a link and running a
per-point search at every axis value.  Gated at >= 3x with
scalar/vectorized parity <= 1e-9 dB.
"""

import math
from dataclasses import replace

import numpy as np

from bench_utils import (
    assert_speedup,
    print_speedup_table,
    run_once,
    speedup_row,
    timed,
)
from repro.api.backend import CallableBackend, ReceiverSweepBackend
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.figures import LAB_INTERFERENCE_FLOOR_DBM
from repro.experiments.scenarios import TransmissiveScenario
from repro.experiments.sweeps import comparison_sweep, multi_axis_sweep


def _controller():
    return CentralizedController(
        VoltageSweepConfig(iterations=2, switches_per_axis=5))


def run_fig17_frequency_sweep():
    """Fig. 17 band sweep: vectorized engine vs per-point scenario loop."""
    frequencies = np.arange(2.40e9, 2.501e9, 0.01e9)

    scalar_points, scalar_s = timed(
        comparison_sweep,
        frequencies,
        link_factory=lambda f: TransmissiveScenario(
            frequency_hz=float(f)).link(),
        baseline_factory=lambda f: TransmissiveScenario(
            frequency_hz=float(f)).baseline_link(),
        controller=_controller())

    scenario = TransmissiveScenario(frequency_hz=float(frequencies[0]))
    vector_points, vector_s = timed(
        multi_axis_sweep, "frequency", frequencies, scenario.link(),
        baseline_link=scenario.baseline_link(), controller=_controller())

    max_error_db = max(
        max(abs(fast.power_with_dbm - slow.power_with_dbm),
            abs(fast.power_without_dbm - slow.power_without_dbm))
        for fast, slow in zip(vector_points, scalar_points))
    return speedup_row("fig17 frequency", len(frequencies), scalar_s,
                       vector_s, max_error_db)


def run_fig18_txpower_sweep():
    """Fig. 18 transmit-power sweep with the noisy-receiver controller."""
    tx_powers_mw = (0.002, 0.02, 0.2, 2.0, 20.0, 200.0, 1000.0)
    tx_powers_dbm = np.array([10.0 * math.log10(p) for p in tx_powers_mw])
    base = TransmissiveScenario(antenna_kind="omni", absorber=False,
                                tx_power_dbm=float(tx_powers_dbm[0]))
    configuration = replace(base.configuration(),
                            interference_floor_dbm=LAB_INTERFERENCE_FLOOR_DBM)

    def scalar_reference():
        # Fresh link + identically seeded receiver + Algorithm 1 at
        # every transmit power (the seed implementation).
        best = []
        for tx_power in tx_powers_dbm:
            point_link = WirelessLink(replace(configuration,
                                              tx_power_dbm=float(tx_power)))
            receiver = _PerPointReceiver(point_link, seed=5)
            sweep = _controller().coarse_to_fine_sweep(CallableBackend(
                receiver.measure))
            best.append(
                point_link.received_power_dbm(sweep.best_vx, sweep.best_vy))
        return best

    def vectorized():
        # One link, one receiver, one one-axis grid search.
        link = WirelessLink(configuration)
        from repro.radio.transceiver import SimulatedReceiver
        receiver = SimulatedReceiver(link, seed=5)
        sweep = _controller().coarse_to_fine_sweep_grid(
            ReceiverSweepBackend(receiver, duration_s=0.0002),
            ProbeGrid.product(tx_power=tx_powers_dbm))
        return link.evaluate(ProbeGrid.aligned(
            tx_power=tx_powers_dbm, vx=sweep.best_vx, vy=sweep.best_vy))

    scalar_best, scalar_s = timed(scalar_reference)
    vector_best, vector_s = timed(vectorized)

    max_error_db = float(np.max(np.abs(np.asarray(scalar_best) -
                                       np.asarray(vector_best))))
    return speedup_row("fig18 tx power", len(tx_powers_mw), scalar_s,
                       vector_s, max_error_db)


class _PerPointReceiver:
    """The scalar reference's noisy instrument (one per axis point)."""

    def __init__(self, link, seed):
        from repro.radio.transceiver import SimulatedReceiver
        self._receiver = SimulatedReceiver(link, seed=seed)

    def measure(self, vx, vy):
        return self._receiver.measure_power_dbm(vx=vx, vy=vy,
                                                duration_s=0.0002)


def run_multi_axis_comparison():
    return [run_fig17_frequency_sweep(), run_fig18_txpower_sweep()]


def test_bench_multi_axis_sweep(benchmark):
    rows = run_once(benchmark, run_multi_axis_comparison)

    print_speedup_table(
        "Multi-axis sweep engine vs scalar per-point loops "
        "(Fig. 17 frequency axis, Fig. 18 tx-power axis)", rows)

    # Acceptance bar for the sweep engine: >= 3x per swept axis.
    assert_speedup(rows, min_speedup=3.0)
