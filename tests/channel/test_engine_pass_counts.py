"""Budget-pass counts of the batched engine paths.

Each batched path replaces a loop of per-point link budgets with a
fixed number of budget passes, whatever its size.  These tests count
the passes with :func:`~repro.channel.link.probe_evaluations` and pin
the batched results to the per-point loops (<= 1e-9 dB).  They are the
deterministic twins of the wall-clock speedup gates in ``benchmarks/``
(batched sweep, grid engine and multi-axis sweep), which time the same
paths.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.geometry import LinkGeometry
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink, probe_evaluations
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.experiments.sweeps import comparison_sweep, multi_axis_sweep

TOLERANCE_DB = 1e-9


def _passes(function, *args, **kwargs):
    """Run ``function``; returns ``(result, budget passes it ran)``."""
    before = probe_evaluations()
    result = function(*args, **kwargs)
    return result, probe_evaluations() - before


@pytest.mark.parametrize("scenario", [TransmissiveScenario(),
                                      ReflectiveScenario()],
                         ids=["transmissive", "reflective"])
def test_heatmap_is_one_pass(scenario):
    """The exhaustive 1 V heatmap (31 x 31 bias pairs) is one pass."""
    link = scenario.link()
    levels = np.arange(0.0, 31.0)
    vx, vy = (axis.ravel() for axis in np.meshgrid(levels, levels,
                                                   indexing="ij"))
    batched, passes = _passes(link.evaluate_grid,
                              ProbeGrid.aligned(vx=vx, vy=vy))
    assert passes == 1
    scalar, scalar_passes = _passes(
        lambda: np.array([link.received_power_dbm(float(a), float(b))
                          for a, b in zip(vx, vy)]))
    assert scalar_passes == 31 * 31
    assert np.max(np.abs(batched - scalar)) <= TOLERANCE_DB


class TestJointGrid:
    """A frequency x second-axis product grid is one pass; looping a
    one-axis frequency grid over the second axis is one per value."""

    FREQUENCIES = np.arange(2.40e9, 2.501e9, 0.005e9)
    VX = np.array([0.0, 7.0, 15.0, 30.0])
    VY = np.array([30.0, 22.0, 15.0, 0.0])

    def _rebuilt(self, link, axis, value):
        if axis == "tx_power":
            return WirelessLink(replace(link.configuration,
                                        tx_power_dbm=float(value)))
        return WirelessLink(replace(
            link.configuration,
            geometry=LinkGeometry.transmissive(float(value))))

    @pytest.mark.parametrize("axis,values", [
        ("tx_power", np.arange(-30.0, 30.1, 2.0)),
        ("distance", np.linspace(0.24, 0.90, 23)),
    ])
    def test_one_pass_per_joint_grid(self, axis, values):
        link = TransmissiveScenario().link()
        grid = ProbeGrid.aligned(frequency=self.FREQUENCIES[:, None, None],
                                 **{axis: values[:, None]},
                                 vx=self.VX, vy=self.VY)
        joint, passes = _passes(link.evaluate, grid)
        assert passes == 1
        assert joint.shape == (self.FREQUENCIES.size, values.size,
                               self.VX.size)
        looped, looped_passes = _passes(lambda: np.stack([
            self._rebuilt(link, axis, value).evaluate(ProbeGrid.aligned(
                frequency=self.FREQUENCIES[:, None], vx=self.VX, vy=self.VY))
            for value in values], axis=1))
        assert looped_passes == values.size
        assert np.max(np.abs(joint - looped)) <= TOLERANCE_DB


class TestMultiAxisSweep:
    """``multi_axis_sweep`` costs one pass per Algorithm 1 iteration
    plus one baseline pass, whatever the axis length; the per-point
    ``comparison_sweep`` loop pays that cost at every axis value."""

    ITERATIONS = 2

    def _controller(self):
        return CentralizedController(VoltageSweepConfig(
            iterations=self.ITERATIONS, switches_per_axis=5))

    @pytest.mark.parametrize("count", [1, 3, 11])
    def test_passes_do_not_grow_with_the_axis(self, count):
        frequencies = np.arange(2.40e9, 2.501e9, 0.01e9)[:count]
        scenario = TransmissiveScenario(frequency_hz=float(frequencies[0]))
        _, passes = _passes(
            multi_axis_sweep, "frequency", frequencies, scenario.link(),
            baseline_link=scenario.baseline_link(),
            controller=self._controller())
        assert passes == self.ITERATIONS + 1
        _, looped_passes = _passes(
            comparison_sweep, frequencies,
            link_factory=lambda f: TransmissiveScenario(
                frequency_hz=float(f)).link(),
            baseline_factory=lambda f: TransmissiveScenario(
                frequency_hz=float(f)).baseline_link(),
            controller=self._controller())
        assert looped_passes == count * (self.ITERATIONS + 1)
