"""The written-out metasurface Jones layer against a reference copy.

``Metasurface.jones_matrix_batch`` writes the cascade
``Q(+45) diag(dx, dy) Q(-45)`` out entry by entry from two QWP outer
products fixed at construction, takes the band-pass field amplitude
directly as ``(1 + x^(2 order))^(-1/2)``, and evaluates the varactor
maths once per distinct layer per axis.  The reference below is the
earlier formulation, kept here as a test-local copy (its dB
conversions spelled with the :mod:`repro.units` helpers, which compute
the same expressions): the QWP matrices
rebuilt per call and cascaded with a batched matmul, the band-pass
amplitude through its dB value, the BFS diagonal as a per-layer sum of
phases and dB losses, and the reflective matrix as ``J^T @ M @ J``.
Both are the same function; these suites pin them to <= 1e-12
element-wise, pin the scalar views to the batch bit for bit, check the
physics the cascade must keep (Eq. 8 rotation, passivity, reciprocity,
typed input errors) and gate the work one call does.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.metasurface.layers as layers_module
from repro.core.jones import polarization_rotator, rotation_angle_of
from repro.metasurface.design import (
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
    scaled_design,
)
from repro.metasurface.layers import BirefringentLayer
from repro.metasurface.materials import FR4
from repro.metasurface.varactor import VaractorDiode
from repro.units import db_to_amplitude, linear_to_db

TOLERANCE = 1e-12

DESIGNS = {
    "llama": llama_design(),
    "rogers": rogers_reference_design(),
    "fr4_naive": fr4_naive_design(),
    "scaled_915mhz": scaled_design(915e6),
}


# ---------------------------------------------------------------------- #
# Reference copy of the earlier formulation
# ---------------------------------------------------------------------- #
def reference_layer_detuning(layer, frequency, voltages):
    capacitance = layer.varactor.capacitance_f(np.asarray(voltages, dtype=float))
    resonant = 1.0 / (2.0 * math.pi * np.sqrt(layer.inductance_h * capacitance))
    return frequency / resonant - resonant / frequency


def reference_diagonal(birefringent, frequency, vx, vy):
    """Per-layer sums of phase and dB loss, one layer at a time."""
    def axis(layers, voltages):
        phase = sum(-np.arctan(layer.loading_factor *
                               reference_layer_detuning(layer, frequency,
                                                        voltages))
                    for layer in layers)
        loss_db = sum(layer.dielectric_insertion_loss_db + linear_to_db(
            1.0 + (layer.detuning_loss_coefficient *
                   reference_layer_detuning(layer, frequency, voltages)) ** 2)
                      for layer in layers)
        return db_to_amplitude(-loss_db) * np.exp(1j * phase)

    return axis(birefringent.x_layers, vx), axis(birefringent.y_layers, vy)


def reference_bandpass_amplitude(surface, frequency, axis):
    center = surface.design_frequency_hz + (
        surface.axis_detuning_hz if axis == "y" else -surface.axis_detuning_hz)
    normalized = 2.0 * surface.selectivity_q * (frequency - center) / center
    loss_db = linear_to_db(1.0 + normalized ** (2 * surface.filter_order))
    return db_to_amplitude(-loss_db)


def reference_jones(surface, frequency_hz, vx, vy):
    """QWP matrices rebuilt per call, cascaded with a batched matmul."""
    frequency = np.asarray(frequency_hz, dtype=float)
    vx, vy = np.asarray(vx, dtype=float), np.asarray(vy, dtype=float)
    if surface.bias_derating is not None:
        low, high = surface.bias_derating
        scale = (high - low) / 30.0
        vx, vy = low + vx * scale, low + vy * scale
    front = surface.front_qwp.jones_matrix(surface.design_frequency_hz).as_array()
    back = surface.back_qwp.jones_matrix(surface.design_frequency_hz).as_array()
    dx, dy = reference_diagonal(surface.birefringent, frequency, vx, vy)
    diagonal = np.stack(np.broadcast_arrays(dx, dy), axis=-1)
    cascade = (front * diagonal[..., None, :]) @ back
    bandpass = np.stack(np.broadcast_arrays(
        reference_bandpass_amplitude(surface, frequency, "x"),
        reference_bandpass_amplitude(surface, frequency, "y")), axis=-1)
    return cascade * bandpass[..., None, :]


def reference_reflection(surface, frequency_hz, vx, vy):
    """``f (J^T (a M) J) + (1 - f) a I`` with matmuls."""
    one_way = reference_jones(surface, frequency_hz, vx, vy)
    mirror = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    amplitude = math.sqrt(surface.reflective_backplane_efficiency)
    converted = np.swapaxes(one_way, -1, -2) @ (amplitude * mirror) @ one_way
    fraction = surface.reflective_conversion_fraction
    return (fraction * converted +
            (1.0 - fraction) * amplitude * np.eye(2, dtype=complex))


def assert_parity(surface, frequency, vx, vy):
    jones = surface.jones_matrix_batch(frequency, vx, vy)
    reflected = surface.reflection_jones_matrix_batch(frequency, vx, vy)
    expected_jones = reference_jones(surface, frequency, vx, vy)
    expected_reflected = reference_reflection(surface, frequency, vx, vy)
    assert jones.shape == expected_jones.shape
    assert reflected.shape == expected_reflected.shape
    assert np.max(np.abs(jones - expected_jones)) <= TOLERANCE
    assert np.max(np.abs(reflected - expected_reflected)) <= TOLERANCE


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
voltage = st.one_of(st.sampled_from([0.0, 30.0]),
                    st.floats(min_value=0.0, max_value=30.0))
frequency = st.floats(min_value=0.5e9, max_value=6.0e9)


@st.composite
def surfaces(draw):
    """Every factory design, ideal or derated, with an asymmetric Y axis
    and 1-3 layers per axis."""
    design = DESIGNS[draw(st.sampled_from(sorted(DESIGNS)))]
    design = replace(
        design,
        layers_per_axis=draw(st.sampled_from([1, 2, 3])),
        y_axis_inductance_scale=draw(st.floats(min_value=0.8,
                                               max_value=1.25)))
    return design.build(prototype=draw(st.booleans()))


@st.composite
def mixed_stack_surfaces(draw):
    """Non-identical layers within one axis, repeated out of order."""
    surface = draw(surfaces())
    base = surface.birefringent.x_layers[0]
    other = replace(base.with_inductance(
        base.inductance_h * draw(st.floats(min_value=0.7, max_value=1.3))),
        detuning_loss_coefficient=draw(st.floats(min_value=0.0,
                                                 max_value=2.0)))
    pattern = draw(st.sampled_from([(0, 1), (0, 1, 0), (1, 0, 0, 1)]))
    layers = tuple((base, other)[index] for index in pattern)
    birefringent = BirefringentLayer(x_layers=layers,
                                     y_layers=tuple(reversed(layers)))
    return replace(surface, birefringent=birefringent)


@st.composite
def bias_grids(draw):
    """An ``(n, k)`` bias grid with an ``(n, 1)`` frequency column."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=5))
    vx = np.array(draw(st.lists(voltage, min_size=n * k, max_size=n * k)))
    vy = np.array(draw(st.lists(voltage, min_size=n * k, max_size=n * k)))
    column = np.array(draw(st.lists(frequency, min_size=n, max_size=n)))
    return column[:, None], vx.reshape(n, k), vy.reshape(n, k)


# ---------------------------------------------------------------------- #
# Parity with the reference copy
# ---------------------------------------------------------------------- #
class TestReferenceParity:
    @given(surfaces(), frequency, voltage, voltage)
    @settings(max_examples=150, deadline=None)
    def test_zero_d_inputs(self, surface, f, vx, vy):
        assert_parity(surface, f, vx, vy)

    @given(surfaces(), bias_grids())
    @settings(max_examples=150, deadline=None)
    def test_bias_grid_with_frequency_column(self, surface, grid):
        assert_parity(surface, *grid)

    @given(mixed_stack_surfaces(), bias_grids())
    @settings(max_examples=100, deadline=None)
    def test_non_identical_layers_within_an_axis(self, surface, grid):
        assert_parity(surface, *grid)

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    @pytest.mark.parametrize("prototype", [False, True])
    def test_range_edges_every_design(self, name, prototype):
        surface = DESIGNS[name].build(prototype=prototype)
        edges = np.array([0.0, 30.0])
        vx, vy = np.meshgrid(edges, edges)
        assert_parity(surface, surface.design_frequency_hz, vx, vy)
        assert_parity(surface, np.array([[2.4e9], [2.5e9]]), vx, vy)

    def test_diagonal_batch_matches_reference(self):
        birefringent = llama_design().build().birefringent
        vx, vy = np.linspace(0.0, 30.0, 7), np.linspace(30.0, 0.0, 7)
        dx, dy = birefringent.diagonal_batch(2.44e9, vx, vy)
        ref_x, ref_y = reference_diagonal(birefringent, 2.44e9, vx, vy)
        assert np.max(np.abs(dx - ref_x)) <= TOLERANCE
        assert np.max(np.abs(dy - ref_y)) <= TOLERANCE

    @given(surfaces(), frequency, voltage, voltage)
    @settings(max_examples=60, deadline=None)
    def test_scalar_views_equal_batch_bit_exactly(self, surface, f, vx, vy):
        assert np.array_equal(surface.jones_matrix(f, vx, vy).as_array(),
                              surface.jones_matrix_batch(f, vx, vy))
        assert np.array_equal(
            surface.reflection_jones_matrix(f, vx, vy).as_array(),
            surface.reflection_jones_matrix_batch(f, vx, vy))


# ---------------------------------------------------------------------- #
# Physics the cascade must keep
# ---------------------------------------------------------------------- #
LOSSLESS = replace(FR4, name="lossless FR4", loss_tangent=0.0)


def lossless_surface(prototype):
    """The LLAMA stack with dielectric, mismatch and X/Y band-pass
    offsets removed (evaluated at the design frequency, the band-pass
    amplitude is exactly 1)."""
    surface = replace(llama_design(), substrate=LOSSLESS,
                      axis_detuning_hz=0.0).build(prototype=prototype)
    layers = surface.birefringent
    birefringent = BirefringentLayer(
        x_layers=tuple(replace(layer, detuning_loss_coefficient=0.0)
                       for layer in layers.x_layers),
        y_layers=tuple(replace(layer, detuning_loss_coefficient=0.0)
                       for layer in layers.y_layers))
    return replace(surface, birefringent=birefringent)


class TestPhysics:
    @pytest.mark.parametrize("prototype", [False, True])
    @given(vx=voltage, vy=voltage)
    @settings(max_examples=40, deadline=None)
    def test_lossless_cascade_is_the_eq8_rotator(self, prototype, vx, vy):
        """Paper Eq. 8: without losses the cascade is, up to a global
        phase, the rotator ``Q(+45) B(delta) Q(-45)``, a rotation by
        half the BFS phase difference."""
        surface = lossless_surface(prototype)
        f = surface.design_frequency_hz
        jones = surface.jones_matrix_batch(f, vx, vy)
        low, high = surface.bias_derating or (0.0, 30.0)
        scale = (high - low) / 30.0
        delta = surface.birefringent.differential_phase_rad(
            f, low + vx * scale, low + vy * scale)
        rotator = polarization_rotator(delta).as_array()
        global_phase = np.trace(rotator.conj().T @ jones) / 2.0
        assert abs(global_phase) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(jones - global_phase * rotator)) <= 1e-12
        angle = rotation_angle_of(surface.jones_matrix(f, vx, vy))
        expected = abs(surface.rotation_angle_deg(f, vx, vy))
        assert min(abs(abs(angle) - expected),
                   abs(abs(angle) - (180.0 - expected))) <= 1e-9

    @given(surfaces(), bias_grids())
    @settings(max_examples=100, deadline=None)
    def test_passive(self, surface, grid):
        """No in-range operating point amplifies: the largest singular
        value of both matrices is at most 1."""
        for matrix in (surface.jones_matrix_batch(*grid),
                       surface.reflection_jones_matrix_batch(*grid)):
            assert np.linalg.svd(matrix, compute_uv=False).max() <= 1.0 + 1e-12

    @given(surfaces(), bias_grids())
    @settings(max_examples=60, deadline=None)
    def test_reflection_is_reciprocal(self, surface, grid):
        reflected = surface.reflection_jones_matrix_batch(*grid)
        assert np.max(np.abs(reflected[..., 0, 1] -
                             reflected[..., 1, 0])) <= 1e-15

    @pytest.mark.parametrize("method", ["jones_matrix_batch",
                                        "reflection_jones_matrix_batch",
                                        "jones_matrix",
                                        "reflection_jones_matrix"])
    def test_input_errors_keep_their_text(self, method):
        surface = llama_design().build()
        call = getattr(surface, method)
        batch = method.endswith("_batch")
        with pytest.raises(ValueError, match="Vx.*outside the supported bias "
                                             r"range \[0.0, 30.0\] V"):
            call(2.44e9, np.array(30.5) if batch else 30.5, 1.0)
        with pytest.raises(ValueError, match="Vy.*outside the supported bias "
                                             r"range \[0.0, 30.0\] V"):
            call(2.44e9, 1.0, np.array(-0.1) if batch else -0.1)
        for bad in (0.0, -2.4e9):
            with pytest.raises(ValueError, match="^frequency must be positive$"):
                call(bad, 1.0, 2.0)

    @pytest.mark.parametrize("method", ["jones_matrix_batch",
                                        "reflection_jones_matrix_batch",
                                        "bandpass_loss_db"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_frequency_raises(self, method, bad):
        """Before, NaN gave NaN matrices and +inf all-zero ones."""
        surface = llama_design().build()
        call = getattr(surface, method)
        args = () if method == "bandpass_loss_db" else (1.0, 2.0)
        message = ("^frequency must be positive$" if bad < 0 else
                   "^frequency must be positive and finite$")
        for frequency in (bad, np.array([[2.4e9], [bad]])):
            with pytest.raises(ValueError, match=message):
                call(frequency, *args)

    def test_layer_batches_reject_non_finite_frequency(self):
        birefringent = llama_design().build().birefringent
        layer = birefringent.x_layers[0]
        for call in (lambda: birefringent.diagonal_batch(math.nan, 1.0, 2.0),
                     lambda: layer.transmission_phase_rad_batch(math.inf,
                                                                3.0),
                     lambda: layer.detuning_loss_db_batch(
                         np.array([2.4e9, math.nan]), 3.0)):
            with pytest.raises(ValueError, match="positive and finite$"):
                call()

    def test_layer_batches_reject_non_positive_frequency(self):
        birefringent = llama_design().build().birefringent
        layer = birefringent.x_layers[0]
        for call in (lambda: birefringent.diagonal_batch(0.0, 1.0, 2.0),
                     lambda: layer.transmission_phase_rad_batch(-1.0, 3.0),
                     lambda: layer.detuning_loss_db_batch(
                         np.array([2.4e9, 0.0]), 3.0)):
            with pytest.raises(ValueError, match="^frequency must be positive$"):
                call()


# ---------------------------------------------------------------------- #
# Work one Jones batch call does
# ---------------------------------------------------------------------- #
@pytest.fixture()
def spy_work(monkeypatch):
    """Install spies on the varactor law and on QWP construction; call
    it after building the surface (construction builds the QWPs)."""
    def install():
        counts = {"capacitance_f": 0, "quarter_wave_plate": 0}
        capacitance_f = VaractorDiode.capacitance_f
        quarter_wave_plate = layers_module.quarter_wave_plate

        def capacitance_spy(self, reverse_voltage_v):
            counts["capacitance_f"] += 1
            return capacitance_f(self, reverse_voltage_v)

        def quarter_wave_plate_spy(*args, **kwargs):
            counts["quarter_wave_plate"] += 1
            return quarter_wave_plate(*args, **kwargs)

        monkeypatch.setattr(VaractorDiode, "capacitance_f", capacitance_spy)
        monkeypatch.setattr(layers_module, "quarter_wave_plate",
                            quarter_wave_plate_spy)
        return counts

    return install


class TestWorkCounts:
    VX = np.linspace(0.0, 30.0, 11)
    VY = np.linspace(30.0, 0.0, 11)

    @pytest.mark.parametrize("method", ["jones_matrix_batch",
                                        "reflection_jones_matrix_batch"])
    def test_llama_call_evaluates_each_distinct_layer_once(self, spy_work,
                                                           method):
        surface = llama_design().build()
        counts = spy_work()
        getattr(surface, method)(2.44e9, self.VX, self.VY)
        # Both axes' layers share one varactor: one evaluation for the
        # stacked axes, and the QWP matrices are constants of the built
        # surface.
        assert counts == {"capacitance_f": 1, "quarter_wave_plate": 0}

    def test_three_layer_stack_still_one_evaluation(self, spy_work):
        surface = rogers_reference_design().build()
        assert surface.birefringent.layers_per_axis == 3
        counts = spy_work()
        surface.jones_matrix_batch(np.array([[2.4e9], [2.5e9]]),
                                   self.VX, self.VY)
        assert counts == {"capacitance_f": 1, "quarter_wave_plate": 0}

    def test_distinct_layers_share_one_varactor_evaluation(self, spy_work):
        base = llama_design().build()
        layer = base.birefringent.x_layers[0]
        other = layer.with_inductance(1.1 * layer.inductance_h)
        surface = replace(base, birefringent=BirefringentLayer(
            x_layers=(layer, other, layer), y_layers=(other,)))
        counts = spy_work()
        surface.jones_matrix_batch(2.44e9, self.VX, self.VY)
        assert counts == {"capacitance_f": 1, "quarter_wave_plate": 0}

    def test_each_distinct_varactor_evaluated_once(self, spy_work):
        base = llama_design().build()
        layer = base.birefringent.x_layers[0]
        other = replace(layer, varactor=replace(
            layer.varactor, name="other", junction_capacitance_f=4.9e-12))
        surface = replace(base, birefringent=BirefringentLayer(
            x_layers=(layer, other, layer), y_layers=(other,)))
        counts = spy_work()
        jones = surface.jones_matrix_batch(2.44e9, self.VX, self.VY)
        assert counts == {"capacitance_f": 2, "quarter_wave_plate": 0}
        assert np.max(np.abs(jones - reference_jones(
            surface, 2.44e9, self.VX, self.VY))) <= TOLERANCE
