"""The receive-polarization projection against a reference copy.

``WirelessLink._project_power_dbm`` projects the total field onto the
receive polarization as ``min(max(|<rx|E>|², floor·I), I)`` — squared
magnitudes from real and imaginary parts and one clamp.  The reference
below is the earlier formulation (its dB conversions spelled with the
:mod:`repro.units` helpers, which compute the same expressions):
``abs`` for the magnitudes, then the matched fraction ``|<rx|E>|² / I``
clamped into ``[floor, 1]`` under ``where(I > 0, ...)`` guards and
scaled back by ``I``.  Both are the same function; these suites pin
them to <= 1e-12 dB over random fields and receive Jones vectors, pin
the edge cases (zero field, NaN, the co-polar cap, the cross-polar
floor) and pin agreement with the scalar
:meth:`Antenna.polarization_coupling`.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.antenna import circular_antenna, dipole_antenna
from repro.channel.link import WirelessLink
from repro.core.jones import JonesVector
from repro.experiments.scenarios import TransmissiveScenario
from repro.units import db_to_linear, milliwatts_to_dbm

TOLERANCE_DB = 1e-12
ISOLATIONS_DB = (12.0, 25.0, 40.0)
FLOOR_DBM = -200.0


def reference_project_power_dbm(fields, rx_x, rx_y, isolation_db):
    """The ``abs`` / ``where`` / divide projection (reference copy)."""
    ex, ey = fields[..., 0], fields[..., 1]
    intensity = np.abs(ex) ** 2 + np.abs(ey) ** 2
    projected = np.conj(rx_x) * ex + np.conj(rx_y) * ey
    with np.errstate(divide="ignore", invalid="ignore"):
        matched_fraction = np.where(intensity > 0.0,
                                    np.abs(projected) ** 2 / intensity,
                                    0.0)
    floor = db_to_linear(-isolation_db)
    coupling = np.where(intensity > 0.0,
                        np.minimum(1.0, np.maximum(matched_fraction, floor)),
                        0.0)
    power_linear_mw = intensity * coupling
    return milliwatts_to_dbm(power_linear_mw)


def _link(rx_antenna) -> WirelessLink:
    configuration = TransmissiveScenario(absorber=True).configuration()
    return WirelessLink(replace(configuration, rx_antenna=rx_antenna))


LINKS = {isolation: _link(dipole_antenna(cross_pol_isolation_db=isolation))
         for isolation in ISOLATIONS_DB}

components = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False)
fields_2d = st.lists(st.tuples(components, components), min_size=1,
                     max_size=24)
unit_pairs = st.tuples(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0))


def _as_fields(pairs) -> np.ndarray:
    return np.array(pairs, dtype=complex).reshape(-1, 2)


def _normalized(pair) -> np.ndarray:
    vector = np.array(pair, dtype=complex)
    return vector / np.linalg.norm(vector)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(pairs=fields_2d, isolation=st.sampled_from(ISOLATIONS_DB))
    def test_configured_receive_polarization(self, pairs, isolation):
        link = LINKS[isolation]
        jones = link.configuration.rx_antenna.jones
        fields = _as_fields(pairs)
        expected = reference_project_power_dbm(fields, jones.x, jones.y,
                                               isolation)
        actual = link._project_power_dbm(fields)
        np.testing.assert_allclose(actual, expected, rtol=0.0,
                                   atol=TOLERANCE_DB)

    @settings(max_examples=60, deadline=None)
    @given(pairs=fields_2d, rx=st.lists(unit_pairs, min_size=1, max_size=24),
           isolation=st.sampled_from(ISOLATIONS_DB))
    def test_per_point_receive_jones(self, pairs, rx, isolation):
        fields = _as_fields(pairs)
        size = min(len(fields), len(rx))
        fields = fields[:size]
        rx_jones = np.stack([_normalized(pair) for pair in rx[:size]])
        expected = reference_project_power_dbm(
            fields, rx_jones[:, 0], rx_jones[:, 1], isolation)
        actual = LINKS[isolation]._project_power_dbm(fields,
                                                     rx_jones=rx_jones)
        np.testing.assert_allclose(actual, expected, rtol=0.0,
                                   atol=TOLERANCE_DB)

    @settings(max_examples=30, deadline=None)
    @given(pairs=fields_2d, rx=unit_pairs)
    def test_broadcast_receive_jones(self, pairs, rx):
        """A ``(k, 1, 2)`` receive axis against ``(n, 2)`` fields."""
        fields = _as_fields(pairs)
        base = _normalized(rx)
        rx_jones = np.stack([base, base[::-1], np.conj(base)])[:, None, :]
        expected = reference_project_power_dbm(
            fields, rx_jones[..., 0], rx_jones[..., 1], 25.0)
        actual = LINKS[25.0]._project_power_dbm(fields, rx_jones=rx_jones)
        assert actual.shape == (3, len(fields))
        np.testing.assert_allclose(actual, expected, rtol=0.0,
                                   atol=TOLERANCE_DB)


class TestEdgeCases:
    @pytest.mark.parametrize("isolation", ISOLATIONS_DB)
    def test_zero_field_hits_the_floor(self, isolation):
        link = LINKS[isolation]
        zero = np.zeros((3, 2), dtype=complex)
        np.testing.assert_array_equal(link._project_power_dbm(zero),
                                      FLOOR_DBM)
        rx_jones = np.array([[0.0, 1.0]], dtype=complex)
        np.testing.assert_array_equal(
            link._project_power_dbm(zero, rx_jones=rx_jones), FLOOR_DBM)

    def test_nan_propagates(self):
        link = LINKS[12.0]
        fields = np.array([[np.nan, 1.0], [1.0, complex(0.0, np.nan)],
                           [1.0, 0.0]], dtype=complex)
        power = link._project_power_dbm(fields)
        assert np.isnan(power[:2]).all()
        assert power[2] == pytest.approx(0.0, abs=TOLERANCE_DB)
        assert np.isnan(reference_project_power_dbm(
            fields, 1.0, 0.0, 12.0)[:2]).all()

    @pytest.mark.parametrize("isolation", ISOLATIONS_DB)
    def test_co_polar_coupling_is_capped_at_one(self, isolation):
        link = LINKS[isolation]
        amplitudes = np.array([1e-6, 0.3, 2.0, 700.0]) * np.exp(1j * 0.7)
        fields = np.stack([amplitudes, np.zeros_like(amplitudes)], axis=-1)
        expected = milliwatts_to_dbm(np.abs(amplitudes) ** 2)
        np.testing.assert_allclose(link._project_power_dbm(fields), expected,
                                   rtol=0.0, atol=TOLERANCE_DB)
        # An over-unit receive vector would couple more than the field
        # carries; the cap holds the power at the field's intensity.
        boosted = np.array([[2.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(
            link._project_power_dbm(fields, rx_jones=boosted), expected,
            rtol=0.0, atol=TOLERANCE_DB)

    @pytest.mark.parametrize("isolation", ISOLATIONS_DB)
    def test_cross_polar_coupling_is_floored(self, isolation):
        link = LINKS[isolation]
        amplitudes = np.array([1e-3, 0.5, 40.0]) * np.exp(-1j * 1.1)
        fields = np.stack([np.zeros_like(amplitudes), amplitudes], axis=-1)
        expected = milliwatts_to_dbm(np.abs(amplitudes) ** 2) - isolation
        np.testing.assert_allclose(link._project_power_dbm(fields), expected,
                                   rtol=0.0, atol=TOLERANCE_DB)

    def test_zero_d_field_stays_zero_d(self):
        power = LINKS[12.0]._project_power_dbm(np.array([0.5, 0.5j]))
        assert np.shape(power) == ()


class TestScalarCoupling:
    """``I · Antenna.polarization_coupling(E)`` is the scalar path."""

    @settings(max_examples=60, deadline=None)
    @given(pair=st.tuples(components, components),
           antenna=st.sampled_from(["dipole", "dipole-oriented", "circular"]))
    def test_matches_polarization_coupling(self, pair, antenna):
        rx = {"dipole": dipole_antenna(),
              "dipole-oriented": dipole_antenna(orientation_deg=33.0,
                                                cross_pol_isolation_db=20.0),
              "circular": circular_antenna()}[antenna]
        link = _link(rx)
        field = JonesVector(pair[0], pair[1])
        scalar = milliwatts_to_dbm(
            field.intensity * rx.polarization_coupling(field))
        power = link._project_power_dbm(np.array(pair, dtype=complex))
        assert float(power) == pytest.approx(scalar, abs=TOLERANCE_DB)
