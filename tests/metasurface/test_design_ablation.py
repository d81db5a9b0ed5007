"""Ablation: metasurface design space (substrate, layers, thickness, cost).

Quantifies the design choices of the paper's Sec. 3.2 and Sec. 4: what
the naive FR4 port loses, what the optimized stack recovers, and what
the Rogers reference would cost.
"""

import numpy as np

from repro.metasurface.design import (
    design_cost_usd,
    fr4_naive_design,
    llama_design,
    rogers_reference_design,
)


def _design_summary(design):
    surface = design.build(prototype=False)
    frequencies = np.linspace(2.40e9, 2.50e9, 11)
    return {
        "worst_in_band_db": min(
            surface.transmission_efficiency_db(f, 8.0, 8.0, axis)
            for f in frequencies for axis in ("x", "y")),
        "max_rotation_deg": surface.rotation_range_deg(2.44e9)[1],
        "prototype_cost": design_cost_usd(design),
        "unit_cost_at_scale": design_cost_usd(
            design, units=3000, economies_of_scale=True) / 3000.0,
    }


def test_design_ablation():
    rogers = _design_summary(rogers_reference_design())
    naive = _design_summary(fr4_naive_design())
    llama = _design_summary(llama_design())

    # Shape: the optimization recovers most of the naive port's loss while
    # keeping FR4's cost advantage and the reference design's tunability.
    assert rogers["worst_in_band_db"] - naive["worst_in_band_db"] > 7.0
    assert rogers["worst_in_band_db"] - llama["worst_in_band_db"] < 3.5
    assert llama["prototype_cost"] < rogers["prototype_cost"]
    assert llama["unit_cost_at_scale"] < 3.5
    assert llama["max_rotation_deg"] > 0.7 * rogers["max_rotation_deg"]
