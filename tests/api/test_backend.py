"""Unit tests for the measurement-backend primitives."""

import numpy as np
import pytest

from repro.api import (
    CallableBackend,
    LinkBackend,
    MeasurementBackend,
    ProbeGrid,
)
from repro.experiments.scenarios import TransmissiveScenario


class TestCallableBackend:
    def test_scalar_and_grid_agree(self):
        backend = CallableBackend(lambda vx, vy: vx - vy)
        assert float(backend.measure_grid(
            ProbeGrid.aligned(vx=3.0, vy=1.0))) == 2.0
        powers = backend.measure_grid(ProbeGrid.aligned(
            vx=np.array([1.0, 2.0]), vy=np.array([0.5, 0.5])))
        assert np.allclose(powers, [0.5, 1.5])

    def test_preserves_probe_order(self):
        seen = []

        def spy(vx, vy):
            seen.append((vx, vy))
            return 0.0

        CallableBackend(spy).measure_grid(ProbeGrid.aligned(
            vx=np.array([1.0, 2.0, 3.0]), vy=np.array([4.0, 5.0, 6.0])))
        assert seen == [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)]

    def test_broadcasts_mixed_shapes(self):
        backend = CallableBackend(lambda vx, vy: vx + vy)
        powers = backend.measure_grid(
            ProbeGrid.aligned(vx=np.array([1.0, 2.0]), vy=10.0))
        assert np.allclose(powers, [11.0, 12.0])

    def test_absent_voltage_axes_read_zero_volts(self):
        backend = CallableBackend(lambda vx, vy, tx_power: vx + vy + tx_power)
        powers = backend.measure_grid(
            ProbeGrid.product(tx_power=np.array([1.0, 2.0])))
        assert np.allclose(powers, [1.0, 2.0])

    def test_orientation_grid_probe_order(self):
        """One call per point, C order, link axes passed by keyword."""
        seen = []

        def turntable(vx, vy, rx_orientation):
            seen.append((rx_orientation, vx, vy))
            return rx_orientation + 10.0 * vx + 100.0 * vy

        grid = ProbeGrid.product(rx_orientation=np.array([0.0, 45.0, 90.0]),
                                 vx=np.array([1.0, 2.0]), vy=3.0)
        powers = CallableBackend(turntable).measure_grid(grid)
        assert powers.shape == (3, 2)
        assert seen == [(angle, vx, 3.0) for angle in (0.0, 45.0, 90.0)
                        for vx in (1.0, 2.0)]
        assert powers[2, 1] == 90.0 + 20.0 + 300.0

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            CallableBackend(42)


class TestProtocol:
    @pytest.mark.parametrize("backend", [
        CallableBackend(lambda vx, vy: 0.0),
        LinkBackend(TransmissiveScenario().link()),
    ], ids=["callable", "link"])
    def test_stock_backends_satisfy_protocol(self, backend):
        assert isinstance(backend, MeasurementBackend)

    def test_bare_callable_is_not_a_backend(self):
        assert not isinstance(lambda vx, vy: 0.0, MeasurementBackend)

    def test_link_backend_orientation_axis_matches_rotated_link(self):
        scenario = TransmissiveScenario()
        backend = LinkBackend(scenario.link())
        powers = backend.measure_grid(ProbeGrid.aligned(
            rx_orientation=np.array([0.0, 45.0, 90.0]), vx=10.0, vy=20.0))
        for angle, power in zip((0.0, 45.0, 90.0), powers):
            rotated = TransmissiveScenario(rx_orientation_deg=angle).link()
            assert power == pytest.approx(
                rotated.received_power_dbm(10.0, 20.0), abs=1e-9)
        assert powers[0] != powers[2]
