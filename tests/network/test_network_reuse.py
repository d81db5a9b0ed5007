"""Polarization reuse in a dense deployment.

The paper's conclusion argues that tuning the signal polarization for
multiple devices "can lead to a new form of polarization reuse ... and
improve the network throughput for dense IoT deployments".  The
scheduling extension quantifies that claim: aggregate throughput,
worst-station rate and retunes for the no-surface, polarization-reuse
and per-station strategies, on a hand-placed deployment and on the
Sec. 7 deployment figure.
"""

from repro.experiments.figures import deployment_scheduling_comparison
from repro.network.deployment import FleetSpec, StationSpec
from repro.network.scheduler import (
    PerStationScheduler,
    PolarizationReuseScheduler,
    baseline_without_surface,
)

#: Scheduling epoch: long enough that a handful of 1 s retunes is a small
#: (but visible) overhead, as it would be for slowly changing deployments.
EPOCH_S = 300.0


def test_network_reuse():
    # Distances and transmit powers put the badly oriented stations on
    # the 802.11g rate cliff, where polarization correction changes the
    # rate.
    deployment = FleetSpec([
        StationSpec("thermostat", 22.0, 0.0, tx_power_dbm=-5.0),
        StationSpec("door-sensor", 28.0, 85.0, tx_power_dbm=-5.0),
        StationSpec("camera", 20.0, 90.0, tx_power_dbm=-5.0),
        StationSpec("smart-plug", 25.0, 10.0, tx_power_dbm=-5.0),
        StationSpec("wearable-hub", 30.0, 75.0, tx_power_dbm=-5.0),
        StationSpec("soil-sensor", 32.0, 40.0, tx_power_dbm=-5.0),
    ]).build()
    baseline = baseline_without_surface(deployment)
    reuse = PolarizationReuseScheduler(
        deployment, epoch_duration_s=EPOCH_S).schedule()
    per_station = PerStationScheduler(
        deployment, epoch_duration_s=EPOCH_S).schedule()

    # Shape: the surface-based schedulers lift the aggregate throughput and
    # (especially) the worst-served station, and polarization reuse retunes
    # far less often than per-station retuning while keeping essentially
    # the same throughput.
    assert reuse.total_throughput_mbps > baseline.total_throughput_mbps
    assert reuse.worst_station_rate_mbps > baseline.worst_station_rate_mbps
    assert per_station.worst_station_rate_mbps > baseline.worst_station_rate_mbps
    assert reuse.retune_count < per_station.retune_count
    assert reuse.total_throughput_mbps > 0.9 * per_station.total_throughput_mbps


def test_fleet_scheduling_comparison():
    """The Sec. 7 deployment figure: every strategy over one epoch."""
    result = deployment_scheduling_comparison()
    reuse = result.result_for("polarization-reuse")
    per_station = result.result_for("per-station")
    baseline = result.result_for("no-surface")
    # Shape: the surface lifts the worst-served station, and clustering
    # retunes less often than per-station tuning at comparable
    # throughput — the paper's polarization-reuse claim.
    assert reuse.worst_station_rate_mbps >= baseline.worst_station_rate_mbps
    assert result.reuse_retune_savings > 0
    assert reuse.total_throughput_mbps > 0.9 * per_station.total_throughput_mbps
