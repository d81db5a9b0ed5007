"""Orchestration entry points accept only ``measure_grid`` backends.

Every public entry point that once took a bare scalar callable now
rejects it with a ``TypeError`` naming :class:`CallableBackend`, the one
adapter for scalar instruments; wrapped, the same callable works.
"""

import pytest

from repro.api import CallableBackend, LinkBackend, ProbeGrid
from repro.core.controller import CentralizedController, VoltageSweepConfig
from repro.core.rotation_estimation import RotationAngleEstimator
from repro.experiments.scenarios import TransmissiveScenario


def quadratic(best_vx, best_vy):
    return lambda vx, vy: -0.05 * ((vx - best_vx) ** 2 + (vy - best_vy) ** 2)


CONTROLLER_ENTRY_POINTS = {
    "full_sweep": lambda c, b: c.full_sweep(b, step_v=5.0),
    "coarse_to_fine_sweep": lambda c, b: c.coarse_to_fine_sweep(b),
    "optimize": lambda c, b: c.optimize(b),
    "optimize_exhaustive": lambda c, b: c.optimize(b, exhaustive=True),
    "optimize_grid": lambda c, b: c.optimize_grid(
        b, ProbeGrid.product(tx_power=[0.0, 5.0])),
    "full_sweep_grid": lambda c, b: c.full_sweep_grid(
        b, ProbeGrid.product(), step_v=5.0),
}

ESTIMATOR_ENTRY_POINTS = {
    "estimate": lambda e, b: e.estimate(b),
    "find_best_orientation": lambda e, b: e.find_best_orientation(b, 0.0, 0.0),
    "find_extreme_voltages": lambda e, b: e.find_extreme_voltages(b, 0.0),
}


class TestControllerBoundary:
    @pytest.mark.parametrize("entry", sorted(CONTROLLER_ENTRY_POINTS))
    @pytest.mark.parametrize("source", [
        quadratic(5.0, 5.0), TransmissiveScenario().link()],
        ids=["bare-callable", "link"])
    def test_rejects_objects_without_measure_grid(self, entry, source):
        with pytest.raises(TypeError, match="CallableBackend"):
            CONTROLLER_ENTRY_POINTS[entry](CentralizedController(), source)

    def test_wrapped_callable_works(self):
        controller = CentralizedController()
        result = controller.full_sweep(CallableBackend(quadratic(12.0, 18.0)),
                                       step_v=1.0)
        assert result.best_vx == pytest.approx(12.0)
        assert result.best_vy == pytest.approx(18.0)
        assert result.probe_count == 31 * 31

    def test_wrapped_callable_and_link_backend_agree(self):
        link = TransmissiveScenario().link()
        controller = CentralizedController()
        wrapped = controller.full_sweep(
            CallableBackend(link.received_power_dbm), step_v=5.0)
        modern = controller.full_sweep(LinkBackend(link), step_v=5.0)
        assert wrapped.best_vx == modern.best_vx
        assert wrapped.best_vy == modern.best_vy
        assert wrapped.best_power_dbm == pytest.approx(modern.best_power_dbm,
                                                       abs=1e-9)


class TestEstimatorBoundary:
    @pytest.mark.parametrize("entry", sorted(ESTIMATOR_ENTRY_POINTS))
    def test_rejects_bare_callables(self, entry):
        estimator = RotationAngleEstimator(orientation_step_deg=30.0)
        with pytest.raises(TypeError, match="CallableBackend"):
            ESTIMATOR_ENTRY_POINTS[entry](
                estimator, lambda orientation, vx, vy: 0.0)

    def test_wrapped_turntable_matches_link_backend(self):
        link = TransmissiveScenario().link()
        estimator = RotationAngleEstimator(
            sweep_config=VoltageSweepConfig(iterations=1, switches_per_axis=4),
            orientation_step_deg=15.0)
        backend = LinkBackend(link)

        def turntable(vx, vy, rx_orientation):
            return float(backend.measure_grid(ProbeGrid.aligned(
                rx_orientation=rx_orientation, vx=vx, vy=vy)))

        wrapped = estimator.estimate(CallableBackend(turntable))
        modern = estimator.estimate(backend)
        assert wrapped == modern


class TestPublicEntryPointsImportable:
    def test_public_surface_importable(self):
        from repro.core.llama import LlamaSystem  # noqa: F401
        from repro.core.controller import (  # noqa: F401
            CentralizedController,
            SweepResult,
        )
        from repro.network.scheduler import (  # noqa: F401
            FixedBiasScheduler,
            PerStationScheduler,
            PolarizationReuseScheduler,
        )
        from repro.experiments.sweeps import (  # noqa: F401
            optimize_link,
            voltage_grid_sweep,
        )

    def test_scheduler_constructors_functional(self):
        from repro.network.deployment import FleetSpec
        from repro.network.scheduler import (
            FixedBiasScheduler,
            PerStationScheduler,
            PolarizationReuseScheduler,
        )
        deployment = FleetSpec.random_home(station_count=3, seed=5).build()
        for scheduler_cls in (FixedBiasScheduler, PerStationScheduler,
                              PolarizationReuseScheduler):
            result = scheduler_cls(deployment,
                                   bias_search_step_v=10.0).schedule()
            assert len(result.allocations) == 3
