"""The one fleet description: :class:`FleetSpec` of :class:`StationSpec`.

Pins the seeded fleet factories to recorded placement digests (so the
stations a factory draws cannot drift), and checks that every factory's
spec survives the JSON round-trip and is the record a deployment built
from it serves.
"""

import pytest

import repro.api
from repro.api import fleet as api_fleet
from repro.experiments import artifacts
from repro.network import deployment as network_deployment
from repro.network.deployment import DenseDeployment, FleetSpec
from repro.world.topology import (
    TOPOLOGY_FAMILIES,
    generate_fleet,
    topology_digest,
)

#: ``topology_digest`` of the seeded factory fleets, recorded before the
#: factories drew their stations directly into specs.
RECORDED_DIGESTS = (
    (lambda: FleetSpec.random_home(6, 7), 1297692398),
    (lambda: FleetSpec.random_home(4, 9), 1290164788),
    (lambda: FleetSpec.random_home(8, 3), 3234746544),
    (lambda: FleetSpec.office(), 782109863),
)

#: Every way the package generates a fleet, by name.
FACTORIES = {
    "random-home": lambda seed: FleetSpec.random_home(5, seed),
    "office": lambda seed: FleetSpec.office(5, seed),
    **{family: (lambda seed, family=family: generate_fleet(family, 5, seed))
       for family in TOPOLOGY_FAMILIES},
}


@pytest.mark.parametrize("factory, digest", RECORDED_DIGESTS)
def test_factory_draws_are_pinned(factory, digest):
    assert topology_digest(factory()) == digest


@pytest.mark.parametrize("seed", (3, 2021))
@pytest.mark.parametrize("name", FACTORIES)
def test_every_factory_spec_round_trips_through_json(name, seed):
    spec = FACTORIES[name](seed)
    assert FleetSpec.from_json(spec.to_json()) == spec
    assert FleetSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", FACTORIES)
def test_deployment_serves_the_spec_records(name):
    spec = FACTORIES[name](7)
    deployment = DenseDeployment(spec)
    assert deployment.stations == spec.stations
    for station in spec.stations:
        assert deployment.station(station.name) is station


def test_api_exports_the_network_types():
    for name in ("SURFACE_DESIGNS", "StationSpec", "TopologySpec",
                 "FleetSpec"):
        for module in (repro.api, api_fleet):
            assert getattr(module, name) is getattr(network_deployment, name)


def test_artifacts_name_the_specs_by_their_public_path():
    # Payloads and result-store keys recorded before the spec types moved
    # name them under ``repro.api.fleet``; they must still match.
    spec = FACTORIES["structured-room"](7)
    encoded = artifacts.encode(spec)
    assert encoded["type"] == "repro.api.fleet:FleetSpec"
    assert encoded["fields"]["topology"]["type"] == (
        "repro.api.fleet:TopologySpec")
    station = encoded["fields"]["stations"]["items"][0]
    assert station["type"] == "repro.api.fleet:StationSpec"
    assert artifacts.decode(encoded) == spec

