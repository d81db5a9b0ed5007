"""Tests for link geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.channel.geometry import LinkGeometry, Position


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_midpoint(self):
        mid = Position(0, 0).midpoint(Position(2, 4, 6))
        assert (mid.x, mid.y, mid.z) == (1.0, 2.0, 3.0)

    def test_translated(self):
        moved = Position(1, 1, 1).translated(dx=1.0, dz=-1.0)
        assert (moved.x, moved.y, moved.z) == (2.0, 1.0, 0.0)

    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_distance_to_self_is_zero(self, x, y, z):
        point = Position(x, y, z)
        assert point.distance_to(point) == pytest.approx(0.0)


class TestTransmissiveLayout:
    def test_surface_between_endpoints(self):
        geometry = LinkGeometry.transmissive(0.42)
        assert geometry.direct_distance_m == pytest.approx(0.42)
        assert geometry.tx_to_surface_m == pytest.approx(0.21)
        assert geometry.surface_to_rx_m == pytest.approx(0.21)

    def test_via_surface_equals_direct_when_colinear(self):
        geometry = LinkGeometry.transmissive(0.60)
        assert geometry.excess_path_m() == pytest.approx(0.0, abs=1e-12)

    def test_incidence_angle_zero_when_colinear(self):
        geometry = LinkGeometry.transmissive(0.42)
        assert geometry.incidence_angle_deg() == pytest.approx(0.0, abs=1e-9)

    def test_endpoint_angles_zero_when_colinear(self):
        geometry = LinkGeometry.transmissive(0.42)
        assert geometry.angle_at_transmitter_deg() == pytest.approx(0.0, abs=1e-9)
        assert geometry.angle_at_receiver_deg() == pytest.approx(0.0, abs=1e-9)

    def test_surface_fraction(self):
        geometry = LinkGeometry.transmissive(1.0, surface_fraction=0.25)
        assert geometry.tx_to_surface_m == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry.transmissive(0.0)
        with pytest.raises(ValueError):
            LinkGeometry.transmissive(1.0, surface_fraction=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_distance_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="^Tx-Rx distance must be positive and finite$"):
            LinkGeometry.transmissive(bad)


class TestReflectiveLayout:
    def test_surface_off_to_the_side(self):
        geometry = LinkGeometry.reflective(0.70, 0.42)
        assert geometry.direct_distance_m == pytest.approx(0.70)
        expected_leg = math.hypot(0.35, 0.42)
        assert geometry.tx_to_surface_m == pytest.approx(expected_leg)
        assert geometry.surface_to_rx_m == pytest.approx(expected_leg)

    def test_via_surface_longer_than_direct(self):
        geometry = LinkGeometry.reflective(0.70, 0.42)
        assert geometry.excess_path_m() > 0.0

    def test_incidence_angle_nonzero(self):
        geometry = LinkGeometry.reflective(0.70, 0.42)
        assert geometry.incidence_angle_deg() > 10.0

    def test_endpoint_angles_match_geometry(self):
        geometry = LinkGeometry.reflective(0.70, 0.42)
        expected = math.degrees(math.atan2(0.42, 0.35))
        assert geometry.angle_at_transmitter_deg() == pytest.approx(expected)
        assert geometry.angle_at_receiver_deg() == pytest.approx(expected)

    def test_moving_surface_away_increases_leg_length(self):
        near = LinkGeometry.reflective(0.70, 0.24)
        far = LinkGeometry.reflective(0.70, 0.66)
        assert far.via_surface_distance_m > near.via_surface_distance_m

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry.reflective(0.0, 0.42)
        with pytest.raises(ValueError):
            LinkGeometry.reflective(0.70, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_separation_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="^Tx-Rx separation must be positive and finite$"):
            LinkGeometry.reflective(bad, 0.42)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="^surface offset must be positive and finite$"):
            LinkGeometry.reflective(0.70, bad)

    def test_degenerate_geometry_rejected(self):
        geometry = LinkGeometry(Position(0, 0), Position(1, 0), Position(0, 0))
        with pytest.raises(ValueError):
            geometry.incidence_angle_deg()
