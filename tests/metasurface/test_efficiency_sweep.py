"""Efficiency sweeps are one Jones batch per curve, equal to the points.

``Metasurface.transmission_efficiency(_db)`` takes an array of
frequencies and evaluates it through one ``jones_matrix_batch`` call;
the scalar call is the one-element view.  These tests hold an array
call to the loop of scalar calls at tolerance 0 (``==`` on the tuples),
the linear efficiency to the Jones-matrix definition of Eq. 11, the
voltage errors to the scalar path's, and Figs. 8-11 to one batch per
curve — all clock-free.
"""

import math

import numpy as np
import pytest

from repro.channel.link import probe_evaluations
from repro.core.jones import JonesVector
from repro.experiments.registry import REGISTRY
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)
from repro.metasurface.surface import Metasurface

FREQUENCIES = np.linspace(2.0e9, 2.8e9, 81)
DESIGNS = {"rogers": rogers_reference_design, "fr4-naive": fr4_naive_design,
           "llama": llama_design}
FIG11_VY = (2, 3, 4, 5, 6, 10, 15)


def ideal(name):
    return DESIGNS[name]().build(prototype=False)


def definition(surface, frequency, vx, vy, excitation):
    """Eq. 11 on the scalar Jones matrix: |J e|^2, capped at 1."""
    incident = (JonesVector.horizontal() if excitation == "x"
                else JonesVector.vertical())
    jones = surface.jones_matrix(frequency, vx, vy)
    return min(1.0, jones.apply(incident).intensity)


class TestArrayEqualsScalarLoop:
    @pytest.mark.parametrize("name", sorted(DESIGNS))
    @pytest.mark.parametrize("excitation", ["x", "y"])
    def test_design_curves(self, name, excitation):
        surface = ideal(name)
        for method in (surface.transmission_efficiency,
                       surface.transmission_efficiency_db):
            swept = method(FREQUENCIES, 8.0, 8.0, excitation)
            assert isinstance(swept, np.ndarray)
            assert swept.shape == FREQUENCIES.shape
            assert tuple(swept.tolist()) == tuple(
                method(float(f), 8.0, 8.0, excitation) for f in FREQUENCIES)
        linear = surface.transmission_efficiency(FREQUENCIES, 8.0, 8.0,
                                                 excitation)
        assert tuple(linear.tolist()) == tuple(
            definition(surface, float(f), 8.0, 8.0, excitation)
            for f in FREQUENCIES)

    @pytest.mark.parametrize("vy", FIG11_VY)
    def test_fig11_bias_set(self, vy):
        surface = ideal("llama")
        swept = surface.transmission_efficiency_db(FREQUENCIES, 8.0, vy)
        assert tuple(swept.tolist()) == tuple(
            surface.transmission_efficiency_db(float(f), 8.0, vy)
            for f in FREQUENCIES)

    def test_reflection_sweep(self):
        surface = llama_design().build()
        for excitation in ("x", "y"):
            swept = surface.reflection_efficiency(FREQUENCIES, 20.0, 5.0,
                                                  excitation)
            assert tuple(swept.tolist()) == tuple(
                surface.reflection_efficiency(float(f), 20.0, 5.0, excitation)
                for f in FREQUENCIES)

    def test_scalar_is_a_float_and_shape_follows_frequency(self):
        surface = ideal("llama")
        value = surface.transmission_efficiency_db(2.44e9, 8.0, 8.0)
        assert type(value) is float
        grid = FREQUENCIES[:80].reshape(8, 10)
        swept = surface.transmission_efficiency_db(grid, 8.0, 8.0, "y")
        assert swept.shape == (8, 10)
        assert np.array_equal(
            swept.ravel(),
            surface.transmission_efficiency_db(grid.ravel(), 8.0, 8.0, "y"))


class TestErrors:
    @pytest.mark.parametrize("vx, vy", [(31.0, 8.0), (8.0, -1.0),
                                        (math.nan, 8.0), (8.0, math.nan)])
    def test_voltages_raise_the_scalar_error(self, vx, vy):
        surface = ideal("llama")
        with pytest.raises(ValueError) as scalar:
            surface.transmission_efficiency(2.44e9, vx, vy)
        assert "outside the supported bias range" in str(scalar.value)
        for method in (surface.transmission_efficiency,
                       surface.transmission_efficiency_db,
                       surface.reflection_efficiency):
            with pytest.raises(ValueError) as swept:
                method(FREQUENCIES, vx, vy)
            assert str(swept.value) == str(scalar.value)

    def test_excitation_and_frequency_are_checked(self):
        surface = ideal("llama")
        with pytest.raises(ValueError, match="excitation"):
            surface.transmission_efficiency_db(FREQUENCIES, 8.0, 8.0, "z")
        with pytest.raises(ValueError):
            surface.transmission_efficiency_db(
                np.array([2.4e9, math.nan]), 8.0, 8.0)


class TestOneBatchPerCurve:
    @pytest.mark.parametrize("name, batches", [("fig08_10", 6),
                                               ("fig11", len(FIG11_VY))])
    def test_smoke_run_batch_count(self, monkeypatch, name, batches):
        calls = []
        original = Metasurface.jones_matrix_batch

        def spy(self, frequency_hz, vx, vy):
            calls.append(np.size(frequency_hz))
            return original(self, frequency_hz, vx, vy)

        monkeypatch.setattr(Metasurface, "jones_matrix_batch", spy)
        spec = REGISTRY.get(name)
        params = spec.resolve({}, smoke=True)
        before = probe_evaluations()
        spec.run(params)
        assert probe_evaluations() == before
        assert calls == [params["frequency_count"]] * batches
