"""The separable budget path against the general engine.

``WirelessLink._budget_power_dbm`` takes a separable path when the bias
arrays and the per-station overrides span disjoint blocks of
dimensions: the received field is affine in the surface's Jones matrix,
so a shared bias lattice crossed with stations is one small matrix
product (``_separable_power_dbm``).  Every other shape contracts the
full field (the general path).  These suites pin:

* parity — hypothesis grids over transmissive, reflective (aimed and
  unaimed) and anechoic / multipath links, with distance, tx-orientation
  and tx-power overrides, as ``(1, K)`` rows and ``(K, 1, 1) x (1, T,
  N)`` cubes: <= 1e-9 dB from the general path on the same operating
  points, with the same first maximum along the lattice;
* a constructed near-null (``J·i ≈ −h`` on a reflective link with a
  direct path) down to ~100 dB below the direct path, where expanding
  ``|E|²`` into bias x station terms would lose the bound;
* dispatch — which callers take which path, with the probe-pass and
  Jones-element counts of the engine unchanged.
"""

import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import FleetSession, FleetSpec
from repro.api.backend import LinkBackend
from repro.channel.ensemble import LinkEnsemble
from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink, probe_evaluations
from repro.channel.multipath import MultipathEnvironment
from repro.constants import SPEED_OF_LIGHT
from repro.core.controller import VoltageSweepConfig, bias_lattice
from repro.experiments.scenarios import ReflectiveScenario, TransmissiveScenario
from repro.metasurface.surface import Metasurface
from repro.world import MobilityTrace, RotationTrace, WorldTimeline

TOLERANCE_DB = 1e-9


def _links():
    reflective = ReflectiveScenario(absorber=False).configuration()
    return {
        "transmissive-anechoic": TransmissiveScenario(absorber=True).link(),
        "transmissive-multipath": TransmissiveScenario(absorber=False).link(),
        "reflective-aimed-anechoic": ReflectiveScenario(absorber=True).link(),
        "reflective-aimed-multipath": WirelessLink(reflective),
        "reflective-unaimed-multipath": WirelessLink(
            replace(reflective, aim_at_surface=False)),
    }


LINKS = _links()


@contextlib.contextmanager
def recorded_paths():
    """The path each budget pass takes, in call order."""
    taken = []
    separable = WirelessLink._separable_power_dbm
    project = WirelessLink._project_power_dbm

    def separable_spy(self, *args):
        taken.append("separable")
        return separable(self, *args)

    def project_spy(self, *args, **kwargs):
        taken.append("general")
        return project(self, *args, **kwargs)

    with mock.patch.object(WirelessLink, "_separable_power_dbm",
                           separable_spy), \
            mock.patch.object(WirelessLink, "_project_power_dbm",
                              project_spy):
        yield taken


@pytest.fixture()
def paths():
    with recorded_paths() as taken:
        yield taken


@pytest.fixture()
def jones_elements(monkeypatch):
    """Element count of every surface Jones batch."""
    counts = []
    for name in ("jones_matrix_batch", "reflection_jones_matrix_batch"):
        original = getattr(Metasurface, name)

        def spy(self, frequency_hz, vx, vy, original=original):
            result = original(self, frequency_hz, vx, vy)
            counts.append(int(np.prod(result.shape[:-2], dtype=np.int64)))
            return result

        monkeypatch.setattr(Metasurface, name, spy)
    return counts


def _assert_parity(separable, general, lattice_axis):
    """<= 1e-9 dB everywhere and the same first maximum per lattice."""
    assert separable.shape == general.shape
    np.testing.assert_allclose(separable, general, rtol=0.0,
                               atol=TOLERANCE_DB)

    def first_max(powers):
        return np.argmax(np.where(np.isnan(powers), -np.inf, powers),
                         axis=lattice_axis)

    np.testing.assert_array_equal(first_max(separable), first_max(general))


voltages = st.floats(min_value=0.0, max_value=30.0)
lattices = st.lists(st.tuples(voltages, voltages), min_size=2, max_size=10,
                    unique=True)
station_values = {
    "distance": st.floats(min_value=0.05, max_value=5.0),
    "tx_orientation": st.floats(min_value=-180.0, max_value=180.0),
    "tx_power": st.floats(min_value=-10.0, max_value=20.0),
}
override_sets = st.sets(st.sampled_from(sorted(station_values)), min_size=1)


@st.composite
def station_axes(draw, count):
    names = draw(override_sets)
    return {name: np.array(draw(st.lists(station_values[name],
                                         min_size=count, max_size=count)))
            for name in names}


class TestParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(sorted(LINKS)),
           lattice=lattices, count=st.integers(min_value=2, max_value=6))
    def test_lattice_row(self, data, layout, lattice, count):
        """``(S, 1)`` stations x one ``(1, K)`` bias row."""
        link = LINKS[layout]
        axes = {name: values[:, None] for name, values in
                data.draw(station_axes(count)).items()}
        vx, vy = (np.array(lattice).T)[:, None, :]
        full = (count, len(lattice))
        with recorded_paths() as paths:
            separable = link.evaluate_grid(ProbeGrid.aligned(**axes, vx=vx,
                                                             vy=vy))
            general = link.evaluate_grid(ProbeGrid.aligned(
                **axes, vx=np.broadcast_to(vx, full),
                vy=np.broadcast_to(vy, full)))
        assert paths == ["separable", "general"]
        _assert_parity(separable, general, lattice_axis=1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(sorted(LINKS)),
           lattice=lattices, epochs=st.integers(min_value=1, max_value=3),
           stations=st.integers(min_value=1, max_value=3))
    def test_candidate_cube(self, data, layout, lattice, epochs, stations):
        """``(K, 1, 1)`` candidates x ``(1, T, N)`` trace planes, the
        world's retune cube (tx power per station, ``(1, 1, N)``)."""
        link = LINKS[layout]
        axes = data.draw(station_axes(epochs * stations))
        shaped = {name: (values[:stations].reshape(1, 1, stations)
                         if name == "tx_power"
                         else values.reshape(1, epochs, stations))
                  for name, values in axes.items()}
        vx, vy = (np.array(lattice).T)[:, :, None, None]
        station_shape = np.broadcast_shapes(
            *(values.shape for values in shaped.values()))
        full = np.broadcast_shapes(vx.shape, station_shape)
        with recorded_paths() as paths:
            separable = link.evaluate_grid(ProbeGrid.aligned(**shaped, vx=vx,
                                                             vy=vy))
            general = link.evaluate_grid(ProbeGrid.aligned(
                **shaped, vx=np.broadcast_to(vx, full),
                vy=np.broadcast_to(vy, full)))
        expected_path = ("separable" if np.prod(station_shape) > 1
                         else "general")
        assert paths == [expected_path, "general"]
        _assert_parity(separable, general, lattice_axis=0)

    @pytest.mark.parametrize("layout", sorted(LINKS))
    def test_single_dimensions_on_both_sides(self, paths, layout):
        """Dimensions one long on both sides sit between the blocks."""
        link = LINKS[layout]
        levels = np.linspace(0.0, 30.0, 5)
        distance = np.array([0.3, 0.9, 2.5]).reshape(1, 3, 1, 1)
        vx = levels.reshape(1, 1, 1, 5)
        separable = link.evaluate_grid(ProbeGrid.aligned(
            distance=distance, vx=vx, vy=vx[..., ::-1]))
        full = np.broadcast_to(vx, (1, 3, 1, 5))
        general = link.evaluate_grid(ProbeGrid.aligned(
            distance=distance, vx=full, vy=full[..., ::-1]))
        assert paths == ["separable", "general"]
        assert separable.shape == (1, 3, 1, 5)
        _assert_parity(separable, general, lattice_axis=3)


class TestNearNull:
    """A reflective link whose surface path cancels its direct path.

    The stations transmit the eigenpolarization ``e`` of the surface's
    Jones matrix ``J(v₀)`` at one lattice point, so the reflected field
    ``λ·e`` is parallel to the direct field; the direct and via-surface
    lengths are then solved so the two have equal amplitude and
    opposite phase.  Perturbing the direct length by ``ε`` sets the
    depth of the null: about ``(2π d ε / λ_c)²`` of the direct power.
    Expanding ``|E|²`` into bias x station terms loses ~``eps/depth``
    of relative precision and misses 1e-9 dB below about -65 dB; the
    receive-basis projections keep it to -100 dB and beyond.
    """

    def test_deep_null_keeps_the_bound(self, paths):
        base = replace(ReflectiveScenario(absorber=True).configuration(),
                       aim_at_surface=False,
                       environment=MultipathEnvironment(ray_count=0))
        link = WirelessLink(base)
        levels = np.linspace(0.0, 30.0, 7)
        vx = np.repeat(levels, 7)[None, :]
        vy = np.tile(levels, 7)[None, :]
        null = 17
        jones = base.metasurface.reflection_jones_matrix_batch(
            base.frequency_hz, vx[0, null], vy[0, null])
        eigenvalues, eigenvectors = np.linalg.eig(jones)
        gain, polarization = eigenvalues[0], eigenvectors[:, 0]
        polarization = polarization / np.linalg.norm(polarization)
        # Equal amplitudes: |λ| / d_via = 1 / d_direct.  Opposite
        # phases: 2π (d_via - d_direct) / λ_c + arg λ = π - 2π n.
        wavelength = SPEED_OF_LIGHT / base.frequency_hz
        turns = np.ceil((np.pi - np.angle(gain)) / (2.0 * np.pi)
                        + (1.0 - abs(gain)) / wavelength)
        direct = ((np.pi - np.angle(gain) - 2.0 * np.pi * turns) * wavelength
                  / (2.0 * np.pi * (abs(gain) - 1.0)))
        epsilons = np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
        count = epsilons.size
        params = {"direct_distance_m": (direct * (1.0 + epsilons))[:, None],
                  "via_distance_m": np.full((count, 1), abs(gain) * direct),
                  "tx_jones": np.broadcast_to(polarization, (count, 1, 2))}
        separable = link._budget_power_dbm(vx, vy, params)
        general = link._budget_power_dbm(np.broadcast_to(vx, (count, 49)),
                                         np.broadcast_to(vy, (count, 49)),
                                         params)
        assert paths == ["separable", "general"]
        _assert_parity(separable, general, lattice_axis=1)
        direct_only = link._budget_power_dbm(
            0.0, 0.0, {"direct_distance_m": np.array(direct),
                       "via_distance_m": np.array(1e9),
                       "tx_jones": polarization})
        depth_db = general[:, null] - direct_only
        # The constructed null is real: ~85 dB deep at ε = 1e-6.
        assert depth_db[0] < -80.0
        assert np.all(np.diff(depth_db) > 0.0)


def _small_world():
    spec = FleetSpec.office(station_count=4, seed=11)
    names = spec.station_names
    return WorldTimeline(
        spec,
        mobility={name: MobilityTrace.random_waypoint(11, name,
                                                      duration_s=2.0)
                  for name in names[:2]},
        rotation={name: RotationTrace.random_walk(11, name, duration_s=2.0)
                  for name in names[2:]},
        duration_s=2.0, time_step_s=0.5)


STEP_V = 5.0
LATTICE = bias_lattice(STEP_V).size ** 2  # 49


class TestDispatch:
    """Which callers take which path; the engine's work is unchanged."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return FleetSession(FleetSpec.office(station_count=6, seed=2021),
                            sweep_config=VoltageSweepConfig(
                                iterations=3, switches_per_axis=5))

    def test_exhaustive_fleet_row(self, fleet, paths, jones_elements):
        before = probe_evaluations()
        fleet.optimize_grid(exhaustive=True, step_v=STEP_V)
        assert probe_evaluations() - before == 1
        assert paths == ["separable"]
        assert jones_elements == [LATTICE]

    def test_algorithm_one_first_window(self, fleet, paths, jones_elements):
        before = probe_evaluations()
        fleet.optimize_grid()
        stations, window = fleet.ensemble.station_count, 5 * 5
        assert probe_evaluations() - before == 3
        # Later iterations probe per-station windows: aligned (n, T²).
        assert paths == ["separable", "general", "general"]
        assert jones_elements == [window, stations * window,
                                  stations * window]

    def test_tdma_rssi_matrix(self, fleet, paths, jones_elements):
        levels = bias_lattice(STEP_V)
        vx, vy = np.repeat(levels, levels.size), np.tile(levels, levels.size)
        before = probe_evaluations()
        rssi = fleet.deployment.rssi_matrix(vx, vy)
        assert probe_evaluations() - before == 1
        assert rssi.shape == (fleet.ensemble.station_count, LATTICE)
        assert paths == ["separable"]
        assert jones_elements == [LATTICE]

    def test_world_candidate_cube(self, paths, jones_elements):
        world = _small_world()
        before = probe_evaluations()
        world.best_bias_planes(step_v=STEP_V)
        assert probe_evaluations() - before == 1
        assert paths == ["separable"]
        assert jones_elements == [LATTICE]

    def test_aligned_windows_stay_general(self, fleet, paths, jones_elements):
        ensemble = fleet.ensemble
        vx = np.linspace(0.0, 30.0, 4 * ensemble.station_count).reshape(
            ensemble.station_count, 4)
        ensemble.link.evaluate_grid(ProbeGrid.aligned(
            **ensemble.station_grid(1), vx=vx, vy=vx[:, ::-1]))
        assert paths == ["general"]
        assert jones_elements == [vx.size]

    def test_per_station_frequency_stays_general(self, paths):
        base = TransmissiveScenario().configuration()
        ensemble = LinkEnsemble(base, frequency_hz=[2.40e9, 2.44e9, 2.48e9])
        ensemble.measure_batch(np.linspace(0.0, 30.0, 5), 4.0)
        assert paths == ["general"]

    def test_per_station_rx_orientation_stays_general(self, paths):
        link = TransmissiveScenario().link()
        link.evaluate_grid(ProbeGrid.aligned(
            rx_orientation=np.array([[0.0], [45.0], [90.0]]),
            vx=np.linspace(0.0, 30.0, 5)[None, :], vy=4.0))
        assert paths == ["general"]

    def test_interleaved_blocks_stay_general(self, paths):
        link = TransmissiveScenario().link()
        powers = link.evaluate_grid(ProbeGrid.product(
            vx=np.linspace(0.0, 30.0, 3), distance=[0.5, 1.0],
            vy=np.linspace(0.0, 30.0, 4)))
        assert powers.shape == (3, 2, 4)
        assert paths == ["general"]

    def test_no_surface_stays_general(self, fleet, paths):
        ensemble = fleet.baseline_ensemble
        ensemble.measure_batch(np.linspace(0.0, 30.0, 5), 4.0)
        assert paths == ["general"]

    def test_single_link_bias_grid_stays_general(self, paths,
                                                 jones_elements):
        """The shapes the disabled-injection overhead bench times."""
        levels = bias_lattice(0.5)
        backend = LinkBackend(TransmissiveScenario().link())
        vx, vy = np.meshgrid(levels, levels, indexing="ij")
        before = probe_evaluations()
        backend.measure_grid(ProbeGrid.aligned(vx=vx, vy=vy))
        backend.measure_grid(ProbeGrid.product(vx=levels, vy=levels))
        assert probe_evaluations() - before == 2
        assert paths == ["general", "general"]
        assert jones_elements == [levels.size ** 2] * 2
