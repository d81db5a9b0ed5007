"""TopologySpec metadata: validation, serialization, FleetSpec carry."""

import pytest

from repro.api.fleet import FleetSession, FleetSpec, StationSpec, TopologySpec


class TestTopologySpec:
    def test_of_sorts_params_deterministically(self):
        first = TopologySpec.of("poisson", seed=1, station_count=4)
        second = TopologySpec.of("poisson", station_count=4, seed=1)
        assert first == second
        assert first.params == second.params

    def test_as_mapping_round_trips(self):
        spec = TopologySpec.of("dense-grid", station_count=9, seed=3,
                               min_distance_m=2.0)
        assert spec.as_mapping() == {"station_count": 9, "seed": 3,
                                     "min_distance_m": 2.0}

    def test_rejects_non_scalar_params(self):
        with pytest.raises(ValueError, match="scalar"):
            TopologySpec.of("poisson", bounds=(2.0, 15.0))

    def test_is_hashable(self):
        spec = TopologySpec.of("poisson", seed=1)
        assert hash(spec) == hash(TopologySpec.of("poisson", seed=1))

    def test_dict_round_trip(self):
        spec = TopologySpec.of("centralized", seed=7, station_count=3)
        assert TopologySpec.from_dict(spec.to_dict()) == spec


class TestFleetSpecCarry:
    def _spec(self, topology=None):
        return FleetSpec(
            stations=(StationSpec(name="sta-0", distance_m=4.0,
                                  orientation_deg=30.0),),
            topology=topology)

    def test_topology_defaults_to_none(self):
        spec = self._spec()
        assert spec.topology is None
        assert "topology" not in spec.to_dict()

    def test_topology_survives_dict_round_trip(self):
        topology = TopologySpec.of("poisson", seed=9, station_count=1)
        spec = self._spec(topology)
        restored = FleetSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.topology == topology

    def test_topology_survives_json_round_trip(self):
        topology = TopologySpec.of("structured-room", seed=2,
                                   station_count=1)
        spec = self._spec(topology)
        restored = FleetSpec.from_json(spec.to_json())
        assert restored.topology == topology

    def test_untagged_spec_json_round_trip_unchanged(self):
        spec = FleetSpec.office(station_count=3)
        assert FleetSpec.from_json(spec.to_json()) == spec
        assert spec.topology is None

    def test_session_and_deployment_keep_the_tagged_spec(self):
        topology = TopologySpec.of("office", station_count=2)
        spec = FleetSpec(FleetSpec.office(station_count=2).stations,
                         topology=topology)
        session = FleetSession(spec)
        assert session.spec is spec
        assert session.deployment.spec.topology == topology
