"""Tests for the metasurface design-space factories and cost model."""

import numpy as np
import pytest

from repro.metasurface.design import (
    MetasurfaceDesign,
    design_cost_usd,
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
    scaled_design,
)
from repro.metasurface.materials import FR4, ROGERS_5880


class TestDesignFactories:
    def test_llama_uses_fr4(self):
        assert llama_design().substrate is FR4

    def test_rogers_reference_uses_rogers(self):
        assert rogers_reference_design().substrate is ROGERS_5880

    def test_naive_port_shares_geometry_with_reference(self):
        reference = rogers_reference_design()
        naive = fr4_naive_design()
        assert naive.layers_per_axis == reference.layers_per_axis
        assert naive.layer_thickness_m == reference.layer_thickness_m
        assert naive.loaded_q == reference.loaded_q
        assert naive.substrate is FR4

    def test_llama_uses_two_phase_shifter_layers(self):
        """Paper Sec. 3.2: 'We use two phase shifting layers'."""
        assert llama_design().layers_per_axis == 2

    def test_llama_stack_thinner_than_reference(self):
        assert llama_design().total_thickness_m < rogers_reference_design().total_thickness_m

    def test_validation(self):
        with pytest.raises(ValueError):
            MetasurfaceDesign("bad", FR4, 0, 1e-3, 5.0, 0.3, 5.0, 0.3, 12.0)
        with pytest.raises(ValueError):
            MetasurfaceDesign("bad", FR4, 2, -1e-3, 5.0, 0.3, 5.0, 0.3, 12.0)


class TestEfficiencyOrdering:
    """The headline comparison of paper Figs. 8-10."""

    @pytest.fixture(scope="class")
    def surfaces(self):
        return {
            "rogers": rogers_reference_design().build(prototype=False),
            "naive": fr4_naive_design().build(prototype=False),
            "llama": llama_design().build(prototype=False),
        }

    def test_naive_fr4_port_collapses_efficiency(self, surfaces):
        rogers = surfaces["rogers"].transmission_efficiency_db(2.44e9, 8.0, 8.0)
        naive = surfaces["naive"].transmission_efficiency_db(2.44e9, 8.0, 8.0)
        assert rogers - naive > 7.0

    def test_optimized_fr4_recovers_most_of_the_loss(self, surfaces):
        rogers = surfaces["rogers"].transmission_efficiency_db(2.44e9, 8.0, 8.0)
        llama = surfaces["llama"].transmission_efficiency_db(2.44e9, 8.0, 8.0)
        assert rogers - llama < 3.5

    def test_ordering_holds_across_the_ism_band(self, surfaces):
        for frequency in np.linspace(2.40e9, 2.50e9, 6):
            rogers = surfaces["rogers"].transmission_efficiency_db(frequency, 8.0, 8.0)
            llama = surfaces["llama"].transmission_efficiency_db(frequency, 8.0, 8.0)
            naive = surfaces["naive"].transmission_efficiency_db(frequency, 8.0, 8.0)
            assert rogers >= llama - 0.5
            assert llama > naive + 5.0

    def test_comparable_rotation_tunability(self, surfaces):
        """Paper: the cheap design achieves comparable polarization
        tunability to the expensive-material design."""
        llama_range = surfaces["llama"].rotation_range_deg(2.44e9)[1]
        rogers_range = surfaces["rogers"].rotation_range_deg(2.44e9)[1]
        assert llama_range > 0.7 * rogers_range


class TestBandScaling:
    def test_900mhz_scaling_recentres_the_design(self):
        rfid = scaled_design(0.915e9)
        surface = rfid.build(prototype=False)
        efficiency = surface.transmission_efficiency_db(0.915e9, 8.0, 8.0)
        assert efficiency > -5.0

    def test_900mhz_rotation_range_comparable(self):
        """Paper Sec. 3.2: 'comparable performance after additional
        scaling' in the 900 MHz band."""
        rfid = scaled_design(0.915e9).build(prototype=False)
        base = llama_design().build(prototype=False)
        rfid_range = rfid.rotation_range_deg(0.915e9)[1]
        base_range = base.rotation_range_deg(2.44e9)[1]
        assert rfid_range == pytest.approx(base_range, rel=0.25)

    def test_scaled_unit_cell_grows_with_wavelength(self):
        rfid = scaled_design(0.915e9)
        assert rfid.side_length_m > llama_design().side_length_m

    def test_scaling_validation(self):
        with pytest.raises(ValueError):
            scaled_design(0.0)


class TestCostModel:
    def test_prototype_cost_in_paper_ballpark(self):
        """Paper Sec. 4: ~$900 total for the 180-unit prototype."""
        cost = design_cost_usd(llama_design())
        assert 500.0 < cost < 1400.0

    def test_cost_per_unit_at_scale_near_two_dollars(self):
        """Paper Sec. 4: ~$2/unit for runs above 3000 units."""
        per_unit = design_cost_usd(llama_design(), units=3000,
                                   economies_of_scale=True) / 3000.0
        assert 1.0 < per_unit < 3.5

    def test_rogers_design_costs_more(self):
        assert design_cost_usd(rogers_reference_design()) > design_cost_usd(
            llama_design())

    def test_cost_scales_with_units(self):
        assert design_cost_usd(llama_design(), units=360) > design_cost_usd(
            llama_design(), units=180)

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            design_cost_usd(llama_design(), units=0)


class TestPrototypeFlag:
    def test_prototype_has_bias_derating(self):
        assert llama_design().build(prototype=True).bias_derating == (2.0, 15.0)

    def test_ideal_build_has_no_derating(self):
        assert llama_design().build(prototype=False).bias_derating is None
