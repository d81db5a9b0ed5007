"""The closed-form axis-parameter layer against the scalar references.

``WirelessLink._axis_parameters`` builds the ``distance``,
``tx_orientation`` and ``rx_orientation`` overrides as array math.  The
per-element references it must reproduce are the link's own scalar
geometry rule (``_geometry_at_distance`` + ``LinkGeometry``'s
path lengths and angles) and ``Antenna.rotated(angle).jones``.  These
property tests pin the two to <= 1e-12 across every scenario layout,
every antenna polarization family, configured orientations, the exact
zero angle and empty / 0-d value arrays.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.antenna import Antenna, circular_antenna, dipole_antenna
from repro.channel.link import WirelessLink
from repro.core.polarization import elliptical_polarization
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario

TOLERANCE = 1e-12


def _layouts():
    """Every distance-axis branch: the four scenarios, the no-surface
    baseline and a reflective surface without aimed antennas."""
    reflective = ReflectiveScenario(absorber=True).configuration()
    return {
        "transmissive-anechoic": TransmissiveScenario(absorber=True).link(),
        "transmissive-multipath": TransmissiveScenario(absorber=False).link(),
        "reflective-anechoic": ReflectiveScenario(absorber=True).link(),
        "reflective-multipath": ReflectiveScenario(absorber=False).link(),
        "no-surface": TransmissiveScenario(absorber=True).link().baseline(),
        "reflective-unaimed": WirelessLink(
            replace(reflective, aim_at_surface=False)),
    }


LAYOUTS = _layouts()


def _antennas():
    elliptical = Antenna(name="elliptical", gain_dbi=3.0,
                         polarization=elliptical_polarization(1.0, 0.4),
                         orientation_deg=25.0, beamwidth_deg=70.0,
                         front_to_back_ratio_db=12.0)
    return {
        "linear": dipole_antenna(),
        "linear-oriented": dipole_antenna(orientation_deg=37.0),
        "circular": circular_antenna(),
        "circular-left-oriented": replace(circular_antenna("left"),
                                          orientation_deg=-60.0),
        "elliptical-oriented": elliptical,
    }


ANTENNAS = _antennas()

finite = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
angles = st.lists(st.one_of(st.just(0.0), finite), max_size=12)
distances = st.lists(st.floats(min_value=1e-3, max_value=50.0), max_size=12)


def _scalar_distance(link, values):
    """The per-element reference overrides for the distance axis."""
    config = link.configuration
    geometries = [link._geometry_at_distance(float(d)) for d in values.ravel()]
    expected = {
        "direct_distance_m": [g.direct_distance_m for g in geometries],
        "via_distance_m": [g.via_surface_distance_m for g in geometries],
    }
    if config.aim_at_surface:
        expected["direct_tx_gain_dbi"] = [
            config.tx_antenna.gain_dbi_towards(g.angle_at_transmitter_deg())
            for g in geometries]
        expected["direct_rx_gain_dbi"] = [
            config.rx_antenna.gain_dbi_towards(g.angle_at_receiver_deg())
            for g in geometries]
    return {key: np.reshape(np.asarray(value, dtype=float), values.shape)
            for key, value in expected.items()}


def _scalar_jones(antenna, values):
    """``Antenna.rotated(angle).jones`` per element, shaped ``(..., 2)``."""
    rotated = [antenna.rotated(float(a)).jones for a in values.ravel()]
    return np.reshape(np.array([[j.x, j.y] for j in rotated], dtype=complex),
                      values.shape + (2,))


def _assert_distance_parity(link, values):
    got = link._axis_parameters("distance", values)
    expected = _scalar_distance(link, values)
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert np.shape(got[key]) == values.shape, key
        assert np.all(np.abs(got[key] - value) <= TOLERANCE), key


def _assert_orientation_parity(link, axis, antenna, values):
    side = "tx_antenna" if axis == "tx_orientation" else "rx_antenna"
    link = WirelessLink(replace(link.configuration, **{side: antenna}))
    key = "tx_jones" if axis == "tx_orientation" else "rx_jones"
    got = link._axis_parameters(axis, values)
    assert set(got) == {key}
    assert got[key].shape == values.shape + (2,)
    assert np.all(np.abs(got[key] - _scalar_jones(antenna, values))
                  <= TOLERANCE)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestDistanceAxis:
    @settings(max_examples=40, deadline=None)
    @given(values=distances)
    def test_matches_scalar_geometry(self, layout, values):
        _assert_distance_parity(LAYOUTS[layout], np.array(values, dtype=float))

    def test_two_dimensional_values_keep_their_shape(self, layout):
        values = np.linspace(0.1, 6.0, 12).reshape(3, 4)
        _assert_distance_parity(LAYOUTS[layout], values)

    def test_empty_and_zero_dimensional(self, layout):
        _assert_distance_parity(LAYOUTS[layout], np.empty((0,)))
        _assert_distance_parity(LAYOUTS[layout], np.empty((2, 0)))
        _assert_distance_parity(LAYOUTS[layout], np.float64(0.42))
        _assert_distance_parity(LAYOUTS[layout], np.array(3.0))

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_non_positive_distance_raises(self, layout, bad):
        """Any non-positive element raises the scalar path's own error."""
        link = LAYOUTS[layout]
        with pytest.raises(ValueError, match="must be positive") as scalar:
            link._geometry_at_distance(bad)
        for values in (np.array([[0.3, 0.6], [bad, 0.9]]), np.float64(bad)):
            with pytest.raises(ValueError) as vectorized:
                link._axis_parameters("distance", values)
            assert str(vectorized.value) == str(scalar.value)


@pytest.mark.parametrize("axis", ["tx_orientation", "rx_orientation"])
@pytest.mark.parametrize("antenna", sorted(ANTENNAS))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestOrientationAxes:
    @settings(max_examples=15, deadline=None)
    @given(values=angles)
    def test_matches_rotated_antenna(self, layout, antenna, axis, values):
        _assert_orientation_parity(LAYOUTS[layout], axis, ANTENNAS[antenna],
                                   np.array(values, dtype=float))

    def test_edge_shapes_and_exact_zero(self, layout, antenna, axis):
        link, chosen = LAYOUTS[layout], ANTENNAS[antenna]
        for values in (np.empty((0,)), np.empty((0, 3)), np.float64(0.0),
                       np.array(-15.0), np.array([[0.0, 90.0], [0.0, 45.0]])):
            _assert_orientation_parity(link, axis, chosen, values)


@pytest.mark.parametrize("antenna", sorted(ANTENNAS))
def test_zero_angle_is_the_base_polarization_exactly(antenna):
    """Angle 0 replaces any configured orientation with the unrotated
    base vector, bit for bit (as ``effective_polarization`` does)."""
    chosen = ANTENNAS[antenna]
    link = WirelessLink(replace(
        LAYOUTS["transmissive-anechoic"].configuration, tx_antenna=chosen))
    jones = link._axis_parameters("tx_orientation", np.zeros(3))["tx_jones"]
    base = chosen.polarization.jones
    assert np.array_equal(jones, np.tile([base.x, base.y], (3, 1)))
