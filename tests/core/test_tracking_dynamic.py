"""Tracking a dynamically rotating endpoint.

The paper's Fig. 1 motivation is a wearable whose antenna orientation
changes as the user moves.  The tracking controller follows a
swinging-wrist trajectory with periodic re-optimization and is compared
with a one-shot (stale) optimization.
"""

from repro.channel.antenna import directional_antenna
from repro.channel.geometry import LinkGeometry
from repro.channel.link import DeploymentMode, LinkConfiguration
from repro.core.controller import VoltageSweepConfig
from repro.core.tracking import OrientationTrajectory, TrackingController
from repro.metasurface.design import llama_design


def test_tracking_dynamic():
    configuration = LinkConfiguration(
        tx_antenna=directional_antenna(orientation_deg=0.0),
        rx_antenna=directional_antenna(orientation_deg=0.0),
        geometry=LinkGeometry.transmissive(0.42),
        metasurface=llama_design().build(),
        deployment=DeploymentMode.TRANSMISSIVE,
    )
    controller = TrackingController(
        configuration,
        OrientationTrajectory.arm_swing(period_s=4.0),
        reoptimize_interval_s=1.0,
        sweep_config=VoltageSweepConfig(iterations=1, switches_per_axis=4),
    )
    tracked = controller.run(duration_s=12.0, time_step_s=0.5)
    static = controller.run_static(duration_s=12.0, time_step_s=0.5)

    # Shape: periodic re-optimization keeps a positive average gain and
    # beats the stale one-shot optimization.
    assert tracked.mean_gain_db > 1.0
    assert tracked.mean_gain_db > static.mean_gain_db
    assert tracked.retune_count > static.retune_count
