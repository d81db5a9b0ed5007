"""The receiver's sampling kernel: one budget pass per RSSI series.

:meth:`SimulatedReceiver.measure_power_dbm_series` must replay a loop of
per-capture reports bit for bit (``==``, not approx) and leave the noise
generator where that loop would, while running one budget pass per
series.  The references below are the per-capture formulation written
out: ``capture()`` (budget pass, clean tone, ``with_noise``, mean power)
once per report, and the per-chunk loop of ``measure_average_dbm``.
:meth:`SimulatedReceiver.shared_seed_series` must equal one fresh
receiver per point, row by row, while drawing the shared noise stream
once.  Every entry point that sizes a capture rejects the same invalid
inputs before it runs a budget pass.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from repro.channel.grid import ProbeGrid
from repro.channel.link import WirelessLink, probe_evaluations
from repro.experiments import figures
from repro.experiments.figures import (
    _device_pdf,
    _run_iot_families,
    _rssi_samples,
)
from repro.experiments.scenarios import IOT_SCENARIOS, iot_wifi_scenario
from repro.experiments.sweeps import optimize_link
from repro.radio.signal import cosine_tone
from repro.radio import transceiver
from repro.radio.transceiver import (
    _NOISE_BLOCK,
    SimulatedReceiver,
    SimulatedTransmitter,
)
from repro.units import dbm_to_milliwatts, milliwatts_to_dbm

B = _NOISE_BLOCK
COUNTS = (1, B - 1, B, B + 1, 2 * B + 1)
DURATIONS_S = (0.0002, 0.002, 0.005)
SURFACE_BIAS = (6.5, 11.0)


@pytest.fixture(scope="module")
def surface_link():
    config, _station, _ap = iot_wifi_scenario(mismatched=True,
                                              with_surface=True)
    return WirelessLink(config)


@pytest.fixture(scope="module")
def baseline_link():
    config, _station, _ap = iot_wifi_scenario(mismatched=True,
                                              with_surface=False)
    return WirelessLink(config)


@pytest.fixture(params=["surface", "baseline"])
def link_and_bias(request, surface_link, baseline_link):
    if request.param == "surface":
        return surface_link, SURFACE_BIAS
    return baseline_link, (0.0, 0.0)


@pytest.fixture(scope="module")
def family_points():
    """Per surface side, one ``(link, vx, vy)`` point per IoT family."""
    points = {}
    for with_surface, bias in ((True, SURFACE_BIAS), (False, (0.0, 0.0))):
        points[with_surface] = []
        for factory in IOT_SCENARIOS.values():
            config, _tx, _rx = factory(mismatched=True,
                                       with_surface=with_surface, seed=2021)
            points[with_surface].append((WirelessLink(config), *bias))
    return points


def per_receiver_rows(points, count, seed, duration_s=0.002):
    """One fresh receiver per point, each seeded ``seed``."""
    return [SimulatedReceiver(link, seed=seed).measure_power_dbm_series(
                count, vx=vx, vy=vy, duration_s=duration_s).tolist()
            for link, vx, vy in points]


def next_draw(receiver):
    """The generator's next output, observed through a public capture."""
    return receiver.capture(duration_s=0.0002).signal.samples


def reference_average_dbm(receiver, seconds, vx=0.0, vy=0.0, chunk_s=0.01):
    """``measure_average_dbm`` as a loop of one capture per chunk."""
    chunk_count = min(max(1, int(round(seconds / chunk_s))), 50)
    powers_mw = []
    for _ in range(chunk_count):
        capture = receiver.capture(duration_s=chunk_s, vx=vx, vy=vy)
        powers_mw.append(float(dbm_to_milliwatts(capture.mean_power_dbm)))
    return float(milliwatts_to_dbm(np.mean(powers_mw)))


def passes(call, *args, **kwargs):
    """``(result, probe_evaluations() delta)`` of one call."""
    before = probe_evaluations()
    result = call(*args, **kwargs)
    return result, probe_evaluations() - before


class TestSeriesParity:
    @pytest.mark.parametrize("duration_s", DURATIONS_S)
    @pytest.mark.parametrize("count", COUNTS)
    def test_series_equals_scalar_loop(self, link_and_bias, count,
                                       duration_s):
        link, (vx, vy) = link_and_bias
        series_rx = SimulatedReceiver(link, seed=11)
        scalar_rx = SimulatedReceiver(link, seed=11)
        capture_rx = SimulatedReceiver(link, seed=11)
        series = series_rx.measure_power_dbm_series(count, vx=vx, vy=vy,
                                                    duration_s=duration_s)
        scalar = [scalar_rx.measure_power_dbm(vx=vx, vy=vy,
                                              duration_s=duration_s)
                  for _ in range(count)]
        captured = [capture_rx.capture(duration_s=duration_s, vx=vx,
                                       vy=vy).mean_power_dbm
                    for _ in range(count)]
        assert series.shape == (count,)
        assert series.dtype == np.float64
        assert series.tolist() == scalar
        assert series.tolist() == captured
        after = next_draw(series_rx)
        assert np.array_equal(after, next_draw(scalar_rx))
        assert np.array_equal(after, next_draw(capture_rx))

    def test_series_continues_the_stream(self, surface_link):
        """Two series back to back equal one series of the joint length."""
        split_rx = SimulatedReceiver(surface_link, seed=3)
        joint_rx = SimulatedReceiver(surface_link, seed=3)
        split = np.concatenate([
            split_rx.measure_power_dbm_series(B + 1, duration_s=0.002),
            split_rx.measure_power_dbm_series(2, duration_s=0.002)])
        joint = joint_rx.measure_power_dbm_series(B + 3, duration_s=0.002)
        assert split.tolist() == joint.tolist()

    @pytest.mark.parametrize("seconds, chunk_s",
                             [(0.01, 0.01), (0.05, 0.002), (0.3, 0.01),
                              (30.0, 0.01), (1.0, 0.003)])
    def test_average_equals_per_chunk_loop(self, link_and_bias, seconds,
                                           chunk_s):
        link, (vx, vy) = link_and_bias
        receiver = SimulatedReceiver(link, seed=5)
        reference_rx = SimulatedReceiver(link, seed=5)
        averaged = receiver.measure_average_dbm(seconds, vx=vx, vy=vy,
                                                chunk_s=chunk_s)
        assert averaged == reference_average_dbm(reference_rx, seconds, vx=vx,
                                                 vy=vy, chunk_s=chunk_s)
        assert np.array_equal(next_draw(receiver), next_draw(reference_rx))


class TestSharedSeedSeries:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("with_surface", [True, False],
                             ids=["surface", "baseline"])
    def test_rows_equal_per_receiver_series(self, family_points,
                                            with_surface, size, count):
        points = family_points[with_surface][:size]
        shared = SimulatedReceiver.shared_seed_series(points, count, 2021,
                                                      duration_s=0.002)
        assert shared.shape == (size, count)
        assert shared.dtype == np.float64
        assert shared.tolist() == per_receiver_rows(points, count, 2021)

    @pytest.mark.parametrize("duration_s", DURATIONS_S)
    def test_mixed_surface_and_baseline_points(self, family_points,
                                               duration_s):
        points = [point for pair in zip(family_points[True],
                                        family_points[False])
                  for point in pair]
        shared = SimulatedReceiver.shared_seed_series(
            points, 2 * B + 1, 7, duration_s=duration_s)
        assert shared.tolist() == per_receiver_rows(points, 2 * B + 1, 7,
                                                    duration_s)

    def test_one_pass_per_point(self, family_points):
        points = family_points[True] + family_points[False]
        _, delta = passes(SimulatedReceiver.shared_seed_series, points,
                          B + 1, 3, duration_s=0.002)
        assert delta == len(points)

    def test_empty_shapes_run_no_pass(self, family_points):
        points = family_points[True]
        empty, delta = passes(SimulatedReceiver.shared_seed_series, points,
                              0, 3, duration_s=0.002)
        assert empty.shape == (3, 0) and delta == 0
        empty, delta = passes(SimulatedReceiver.shared_seed_series, [], 5, 3,
                              duration_s=0.002)
        assert empty.shape == (0, 5) and delta == 0

    def test_invalid_arguments_rejected(self, family_points):
        with pytest.raises(ValueError, match="count must be non-negative"):
            SimulatedReceiver.shared_seed_series(family_points[True], -1, 3,
                                                 duration_s=0.002)
        with pytest.raises(ValueError, match="at least one sample"):
            SimulatedReceiver.shared_seed_series(family_points[True], 2, 3,
                                                 duration_s=TOO_SHORT_S)

    @pytest.mark.parametrize("scale", [1e-9, 3.2e-6, 0.37, 1.0, 41.5])
    @pytest.mark.parametrize("shape", [(7,), (B, 2, 2000), (1, 2, 5)])
    def test_normal_is_scaled_standard_normal(self, scale, shape):
        """The kernel scales one standard-normal block per link."""
        normal = np.random.default_rng(2021).normal(0.0, scale, shape)
        standard = np.random.default_rng(2021).standard_normal(shape)
        assert np.array_equal(normal, scale * standard)

    def test_iot_families_work(self, monkeypatch):
        """3 optimizes, 6 budget passes and 2 generators (one per side)."""
        optimize_passes = 0
        for factory in IOT_SCENARIOS.values():
            config, _tx, _rx = factory(mismatched=True, with_surface=True,
                                       seed=2021)
            optimize_passes += passes(optimize_link,
                                      WirelessLink(config))[1]
        optimized, seeds = [], []
        real_optimize = figures.optimize_link
        real_default_rng = np.random.default_rng

        def optimize_spy(link):
            optimized.append(link)
            return real_optimize(link)

        def default_rng_spy(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == transceiver.__name__:
                seeds.append(args)
            return real_default_rng(*args, **kwargs)

        monkeypatch.setattr(figures, "optimize_link", optimize_spy)
        monkeypatch.setattr(np.random, "default_rng", default_rng_spy)
        result, delta = passes(_run_iot_families, 10, 2021)
        assert list(result) == list(IOT_SCENARIOS)
        assert len(optimized) == 3
        assert delta == optimize_passes + 6
        assert seeds == [(2021,), (2022,)]


class TestWorkCounts:
    def test_one_pass_per_series(self, surface_link):
        receiver = SimulatedReceiver(surface_link, seed=1)
        for count in COUNTS:
            _, delta = passes(receiver.measure_power_dbm_series, count,
                              *SURFACE_BIAS, duration_s=0.002)
            assert delta == 1

    def test_one_pass_per_average(self, surface_link):
        receiver = SimulatedReceiver(surface_link, seed=1)
        _, delta = passes(receiver.measure_average_dbm, 30.0, *SURFACE_BIAS)
        assert delta == 1

    def test_empty_series_runs_no_pass_and_draws_nothing(self, surface_link):
        receiver = SimulatedReceiver(surface_link, seed=2)
        untouched = SimulatedReceiver(surface_link, seed=2)
        series, delta = passes(receiver.measure_power_dbm_series, 0)
        assert series.shape == (0,) and series.dtype == np.float64
        assert delta == 0
        assert np.array_equal(next_draw(receiver), next_draw(untouched))

    def test_negative_count_rejected(self, surface_link):
        receiver = SimulatedReceiver(surface_link)
        with pytest.raises(ValueError, match="count must be non-negative"):
            receiver.measure_power_dbm_series(-1)

    @pytest.mark.parametrize("sample_count", [10, 60])
    def test_rssi_samples_is_one_pass(self, sample_count):
        config, _tx, _rx = IOT_SCENARIOS["iot_ble"](mismatched=True,
                                                    seed=2021)
        samples, delta = passes(_rssi_samples, config, sample_count, 2021)
        assert len(samples) == sample_count
        assert all(type(value) is float for value in samples)
        assert delta == 1

    @pytest.mark.parametrize("sample_count", [10, 60])
    def test_device_pdf_is_optimize_plus_two_passes(self, sample_count):
        with_config, _tx, _rx = iot_wifi_scenario(with_surface=True)
        without_config, _tx, _rx = iot_wifi_scenario(with_surface=False)
        _, optimize_passes = passes(optimize_link, WirelessLink(with_config))
        result, delta = passes(_device_pdf, with_config, without_config,
                               sample_count, 2021)
        assert len(result.with_surface_rssi_dbm) == sample_count
        assert len(result.without_surface_rssi_dbm) == sample_count
        assert delta == optimize_passes + 2


TOO_SHORT_S = 1e-7   # rounds to zero samples at 1 MS/s
NON_FINITE = (math.nan, math.inf)


def capture_entry_points(receiver, duration_s, tone_frequency_hz=500e3):
    """Every receiver call that sizes a capture, at ``duration_s``."""
    return {
        "capture": lambda: receiver.capture(
            duration_s=duration_s, tone_frequency_hz=tone_frequency_hz),
        "measure_power_dbm": lambda: receiver.measure_power_dbm(
            duration_s=duration_s),
        "series": lambda: receiver.measure_power_dbm_series(
            3, duration_s=duration_s),
        "grid": lambda: receiver.measure_power_dbm_grid(
            ProbeGrid.aligned(tx_power=[0.0, 3.0]), duration_s=duration_s,
            tone_frequency_hz=tone_frequency_hz),
        "average chunk": lambda: receiver.measure_average_dbm(
            1.0, chunk_s=duration_s),
    }


class TestCaptureValidation:
    @pytest.mark.parametrize("entry", ["capture", "measure_power_dbm",
                                       "series", "grid", "average chunk"])
    def test_sub_sample_duration_rejected_before_the_pass(self, surface_link,
                                                          entry):
        receiver = SimulatedReceiver(surface_link)
        call = capture_entry_points(receiver, TOO_SHORT_S)[entry]
        before = probe_evaluations()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one sample"):
                call()
        assert probe_evaluations() == before

    def test_sub_sample_tone_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            cosine_tone(duration_s=TOO_SHORT_S)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("entry", ["capture", "measure_power_dbm",
                                       "series", "grid", "average chunk"])
    def test_non_finite_duration_rejected(self, surface_link, entry, value):
        receiver = SimulatedReceiver(surface_link)
        call = capture_entry_points(receiver, value)[entry]
        before = probe_evaluations()
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()
        assert probe_evaluations() == before

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_average_window_rejected(self, surface_link, value):
        receiver = SimulatedReceiver(surface_link)
        with pytest.raises(ValueError,
                           match="^averaging window must be positive and "
                                 "finite$"):
            receiver.measure_average_dbm(value)

    @pytest.mark.parametrize("value", NON_FINITE + (0.0, -1e6))
    def test_receiver_sample_rate_rejected(self, surface_link, value):
        with pytest.raises(ValueError,
                           match="^sample rate must be positive and finite$"):
            SimulatedReceiver(surface_link, sample_rate_hz=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_transmitter_rejects_non_finite(self, value):
        with pytest.raises(ValueError,
                           match="^tone frequency must be positive and "
                                 "finite$"):
            SimulatedTransmitter(tone_frequency_hz=value)
        with pytest.raises(ValueError,
                           match="^sample rate must be positive and finite$"):
            SimulatedTransmitter(sample_rate_hz=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_tone_rejects_non_finite(self, value):
        for kwargs in ({"frequency_hz": value}, {"sample_rate_hz": value},
                       {"duration_s": value}):
            with pytest.raises(ValueError, match="must be positive and finite"):
                cosine_tone(**kwargs)

    @pytest.mark.parametrize("entry", ["capture", "grid"])
    def test_nyquist_limit_shared(self, surface_link, entry):
        receiver = SimulatedReceiver(surface_link)
        call = capture_entry_points(receiver, 0.002,
                                    tone_frequency_hz=0.9e6)[entry]
        before = probe_evaluations()
        with pytest.raises(ValueError, match="Nyquist"):
            call()
        assert probe_evaluations() == before
        with pytest.raises(ValueError, match="Nyquist"):
            cosine_tone(frequency_hz=0.9e6, sample_rate_hz=1e6)
