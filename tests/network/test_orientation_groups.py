"""Property test: the anchor-major ``orientation_groups`` equals the greedy loop.

Each station joins the earliest group whose anchor (first member) lies
within tolerance on the 180° polarization circle, else it anchors a new
group.  ``reference_groups`` is that loop written out station by
station; :meth:`DenseDeployment.orientation_groups` must reproduce its
groups and member order exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.deployment import DenseDeployment, FleetSpec, StationSpec


def reference_groups(orientations, tolerance_deg):
    groups, anchors = [], []
    for index, orientation_deg in enumerate(orientations):
        orientation = orientation_deg % 180.0
        for group, anchor in zip(groups, anchors):
            difference = abs(orientation - anchor) % 180.0
            difference = min(difference, 180.0 - difference)
            if difference <= tolerance_deg:
                group.append(f"s{index}")
                break
        else:
            groups.append([f"s{index}"])
            anchors.append(orientation)
    return groups


def deployment_groups(orientations, tolerance_deg):
    stations = [StationSpec(f"s{index}", 3.0, orientation)
                for index, orientation in enumerate(orientations)]
    return FleetSpec(stations).build().orientation_groups(tolerance_deg)


#: Arbitrary angles (negative, beyond 180°, tiny negatives that wrap to
#: 180.0) mixed with 5° multiples, which sit exactly on the boundary of
#: the 5°-multiple tolerances drawn below.
angles = st.one_of(
    st.floats(min_value=-720.0, max_value=720.0, allow_nan=False),
    st.integers(min_value=-144, max_value=144).map(lambda k: 5.0 * k),
    st.sampled_from([-1e-12, -0.0, 0.0, 180.0, 360.0, -180.0]),
)

tolerances = st.one_of(
    st.floats(min_value=1e-6, max_value=180.0),
    st.integers(min_value=1, max_value=36).map(lambda k: 5.0 * k),
)


@st.composite
def orientation_lists(draw):
    """Orientations with deliberate repeats of earlier draws."""
    base = draw(st.lists(angles, min_size=1, max_size=40))
    repeats = draw(st.lists(st.sampled_from(base), max_size=10))
    return draw(st.permutations(base + repeats))


class TestAnchorMajorGroups:
    @settings(max_examples=300, deadline=None)
    @given(orientations=orientation_lists(), tolerance=tolerances)
    def test_matches_greedy_loop(self, orientations, tolerance):
        assert (deployment_groups(orientations, tolerance)
                == reference_groups(orientations, tolerance))

    @settings(max_examples=50, deadline=None)
    @given(orientations=orientation_lists(),
           tolerance=st.floats(min_value=90.0, max_value=1e6))
    def test_tolerance_of_a_quarter_turn_or_more_is_one_group(
            self, orientations, tolerance):
        groups = deployment_groups(orientations, tolerance)
        assert groups == reference_groups(orientations, tolerance)
        assert groups == [[f"s{index}" for index in range(len(orientations))]]


class TestClusteredOncePerTolerance:
    """The stations are an immutable tuple, so each tolerance's groups
    are clustered once; callers get fresh lists every time."""

    def test_each_tolerance_clusters_once(self, monkeypatch):
        deployment = FleetSpec.random_home(8, seed=3).build()
        calls = []
        cluster = DenseDeployment._cluster_orientations

        def spy(self, tolerance_deg):
            calls.append(tolerance_deg)
            return cluster(self, tolerance_deg)

        monkeypatch.setattr(DenseDeployment, "_cluster_orientations", spy)
        first = deployment.orientation_groups(20.0)
        for _ in range(3):
            assert deployment.orientation_groups(20.0) == first
        deployment.orientation_groups(45.0)
        deployment.orientation_groups(45.0)
        assert calls == [20.0, 45.0]

    def test_returned_lists_cannot_corrupt_the_cache(self):
        deployment = FleetSpec.random_home(8, seed=3).build()
        groups = deployment.orientation_groups(20.0)
        expected = [list(group) for group in groups]
        groups[0].append("intruder")
        groups.append(["ghost"])
        assert deployment.orientation_groups(20.0) == expected
        assert deployment.orientation_groups(20.0) is not groups
