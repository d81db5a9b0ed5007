"""The per-link budget plan: work counts and random-probe parity.

A :class:`WirelessLink` hoists everything its frozen configuration alone
determines — fixed-geometry distances and their free-space loss and
carrier phase, antenna vectors and gains, the clutter field, the
cross-polar floor — into a plan built once, on its first pass.  These
suites pin what a pass still does (spies count the geometry norms, the
free-space losses, the Jones batches and the varactor evaluations) and
check the plan against fresh scalar links on random small aligned
probes, in every layout the distance axis distinguishes.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.channel.link as link_module
from repro import units
from repro.api.fleet import FleetSession, FleetSpec
from repro.channel.ensemble import LinkEnsemble
from repro.channel.geometry import Position
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.metasurface.surface import Metasurface
from repro.metasurface.varactor import VaractorDiode

TOLERANCE_DB = 1e-9

REFLECTIVE = ReflectiveScenario(absorber=False).configuration()

#: Layout name -> base configuration (the distance axis is the Tx-Rx
#: distance of the transmissive layout and the surface offset of the
#: other two; an aimed layout also bends the direct path's gains).
LAYOUTS = {
    "transmissive": TransmissiveScenario(absorber=False).configuration(),
    "reflective": replace(REFLECTIVE, aim_at_surface=False),
    "aim_at_surface": REFLECTIVE,
    "aim_at_surface-baseline": REFLECTIVE.without_surface(),
}

LEVELS = np.linspace(0.0, 30.0, 7)


def _spy(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.fixture()
def work(monkeypatch):
    """Per-pass work counters; install after the links' first pass."""
    def install():
        counts = dict.fromkeys(("distance_to", "free_space_loss", "jones",
                                "reflection_jones", "capacitance_f"), 0)
        _spy(monkeypatch, Position, "distance_to", counts, "distance_to")
        _spy(monkeypatch, link_module, "unchecked_path_loss_db", counts,
             "free_space_loss")
        _spy(monkeypatch, Metasurface, "jones_matrix_batch", counts, "jones")
        _spy(monkeypatch, Metasurface, "reflection_jones_matrix_batch",
             counts, "reflection_jones")
        _spy(monkeypatch, VaractorDiode, "capacitance_f", counts,
             "capacitance_f")
        return counts

    return install


def _ensemble(layout, count=3):
    return LinkEnsemble(LAYOUTS[layout],
                        tx_power_dbm=np.linspace(-5.0, 10.0, count),
                        tx_orientation_deg=np.linspace(0.0, 120.0, count))


#: Probes with no distance or frequency override: a scalar probe, a
#: bias grid, an aligned per-station pass, a shared-lattice pass (the
#: separable path) and a receive-orientation scan.
PROBES = {
    "scalar": lambda link: link.received_power_dbm(7.0, 22.0),
    "bias grid": lambda link: link.evaluate_grid(
        ProbeGrid.product(vx=LEVELS, vy=LEVELS)),
    "aligned stations": lambda link: LinkEnsemble(
        link, tx_power_dbm=[0.0, 3.0, 6.0],
        tx_orientation_deg=[0.0, 45.0, 90.0]).measure_aligned(
            np.array([1.0, 5.0, 20.0]), np.array([3.0, 9.0, 27.0])),
    "lattice x stations": lambda link: LinkEnsemble(
        link, tx_power_dbm=[0.0, 3.0, 6.0]).measure_aligned(
            LEVELS[None], LEVELS[::-1][None]),
    "rx orientation": lambda link: link.evaluate_grid(ProbeGrid.aligned(
        rx_orientation=np.array([0.0, 30.0, 90.0]), vx=4.0, vy=12.0)),
}


class TestPassWork:
    @pytest.mark.parametrize("layout", ["transmissive", "aim_at_surface"])
    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_no_geometry_or_free_space_work_per_pass(self, work, layout,
                                                     probe):
        link = WirelessLink(LAYOUTS[layout])
        PROBES[probe](link)  # builds the plan
        counts = work()
        for _ in range(3):
            PROBES[probe](link)
        reflective = layout != "transmissive"
        assert counts == {
            "distance_to": 0, "free_space_loss": 0,
            # One Jones batch per pass (the reflective batch builds on
            # the transmissive one), one varactor evaluation per batch.
            "jones": 3, "reflection_jones": 3 if reflective else 0,
            "capacitance_f": 3}

    def test_plan_is_built_once_per_link(self, monkeypatch):
        calls = []
        build = WirelessLink._build_plan

        def spy(self):
            calls.append(self)
            return build(self)

        monkeypatch.setattr(WirelessLink, "_build_plan", spy)
        link = WirelessLink(LAYOUTS["transmissive"])
        for probe in PROBES.values():
            probe(link)
        link.evaluate(3.0, 9.0)
        assert calls == [link]

    def test_distance_axis_pays_only_its_own_losses(self, work):
        link = WirelessLink(LAYOUTS["aim_at_surface"])
        grid = ProbeGrid.aligned(distance=np.array([0.3, 0.5, 0.8]),
                                 vx=5.0, vy=20.0)
        link.evaluate_grid(grid)
        counts = work()
        link.evaluate_grid(grid)
        # The direct loss serves the direct and the clutter field; the
        # via-surface path has its own.
        assert counts["distance_to"] == 0
        assert counts["free_space_loss"] == 2
        assert counts["capacitance_f"] == 1

    def test_fleet_pass_checks_its_frequency_at_most_once(self, monkeypatch):
        """The plan's frequency was validated with the configuration, so
        a pass's free-space losses do not re-check it; the Jones batch
        is the one public entry point left that does."""
        fleet = FleetSession(FleetSpec.office(station_count=8))
        vx, vy = np.linspace(1.0, 8.0, 8), np.linspace(20.0, 6.0, 8)
        expected = fleet.measure_aligned(vx, vy)  # builds the plan
        calls = []
        original = units.positive_frequency

        def spy(frequency_hz):
            calls.append(frequency_hz)
            return original(frequency_hz)

        for module in list(sys.modules.values()):
            if getattr(module, "positive_frequency", None) is original:
                monkeypatch.setattr(module, "positive_frequency", spy)
        powers = fleet.measure_aligned(vx, vy)
        assert len(calls) <= 1
        np.testing.assert_array_equal(powers, expected)


# ---------------------------------------------------------------------- #
# Random small aligned probes against fresh scalar links
# ---------------------------------------------------------------------- #
voltages = st.floats(min_value=0.0, max_value=30.0)


@st.composite
def aligned_probes(draw):
    """A layout, S in 1..5 stations with random distances, powers and
    orientations, and per-station voltages: pairs ``(S,)`` or windows
    ``(S, k)``."""
    count = draw(st.integers(min_value=1, max_value=5))

    def column(strategy):
        return np.array(draw(st.lists(strategy, min_size=count,
                                      max_size=count)))

    stations = {
        "distance_m": column(st.floats(min_value=0.1, max_value=8.0)),
        "tx_power_dbm": column(st.floats(min_value=-20.0, max_value=20.0)),
        "tx_orientation_deg": column(st.floats(min_value=-180.0,
                                               max_value=180.0)),
    }
    names = draw(st.sets(st.sampled_from(sorted(stations)), min_size=1))
    window = draw(st.sampled_from([(), (1,), (3,)]))
    size = count * int(np.prod(window))
    vx = np.array(draw(st.lists(voltages, min_size=size, max_size=size)))
    vy = np.array(draw(st.lists(voltages, min_size=size, max_size=size)))
    return (draw(st.sampled_from(sorted(LAYOUTS))),
            {name: stations[name] for name in names},
            vx.reshape((count,) + window), vy.reshape((count,) + window))


class TestRandomAlignedParity:
    @settings(max_examples=150, deadline=None)
    @given(probe=aligned_probes())
    def test_rows_match_fresh_scalar_links(self, probe):
        layout, stations, vx, vy = probe
        ensemble = LinkEnsemble(LAYOUTS[layout], **stations)
        stacked = ensemble.measure_aligned(vx, vy)
        assert stacked.shape == vx.shape
        for index in range(ensemble.station_count):
            link = ensemble.link_for(index)
            expected = [link.received_power_dbm(x, y) for x, y in
                        zip(np.ravel(vx[index]), np.ravel(vy[index]))]
            np.testing.assert_allclose(np.ravel(stacked[index]), expected,
                                       rtol=0.0, atol=TOLERANCE_DB)
