"""Load-generator tests: determinism, stream independence, arrivals."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import stream_seed
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    BIAS_SAMPLE_RANGE_V,
    MEASURE_ONLY,
    LoadProfile,
    RequestMix,
    _arrival_times,
    generate_trace,
    station_names,
)
from repro.serve.requests import REQUEST_KINDS, Request

STATIONS = station_names(4)


class TestDeterministicReplay:
    def test_same_profile_same_digest(self):
        profile = LoadProfile(rate_rps=200.0, duration_s=0.5, seed=7)
        first = generate_trace(profile, STATIONS)
        second = generate_trace(profile, STATIONS)
        assert first.digest() == second.digest()
        assert first.requests == second.requests

    def test_different_seed_different_trace(self):
        base = LoadProfile(rate_rps=200.0, duration_s=0.5, seed=7)
        other = LoadProfile(rate_rps=200.0, duration_s=0.5, seed=8)
        assert (generate_trace(base, STATIONS).digest()
                != generate_trace(other, STATIONS).digest())

    def test_digest_is_formatted_once_on_first_call(self, monkeypatch):
        profile = LoadProfile(rate_rps=200.0, duration_s=0.5, seed=7)
        keys = []
        original = Request.key
        monkeypatch.setattr(Request, "key",
                            lambda request: keys.append(1) or original(request))
        trace = generate_trace(profile, STATIONS)
        assert keys == []  # building a trace formats nothing
        text = ";".join(original(request) for request in trace.requests)
        assert trace.digest() == zlib.crc32(text.encode("utf-8"))
        assert trace.digest() == trace.digest()
        assert len(keys) == len(trace)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_replay_digest_for_arbitrary_seeds(self, seed):
        profile = LoadProfile(rate_rps=120.0, duration_s=0.3, seed=seed)
        assert (generate_trace(profile, STATIONS).digest()
                == generate_trace(profile, STATIONS).digest())


#: Mixes with zero-probability kinds, the measurement-only mix and the
#: default mix.
weights = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=50.0))
mixes = st.one_of(
    st.just(MEASURE_ONLY), st.just(RequestMix()),
    st.tuples(weights, weights, weights, weights)
    .filter(lambda four: sum(four) > 0.0)
    .map(lambda four: RequestMix(*four)))


def reference_kinds(profile, station):
    """One station's request kinds drawn with ``Generator.choice``."""
    rng = np.random.default_rng(stream_seed(profile.seed,
                                            f"loadgen.{station}"))
    probabilities = profile.mix.probabilities()
    kinds = []
    for _at in _arrival_times(profile, profile.rate_rps, rng):
        kinds.append(REQUEST_KINDS[int(rng.choice(len(REQUEST_KINDS),
                                                  p=probabilities))])
        rng.uniform(*BIAS_SAMPLE_RANGE_V)
        rng.uniform(*BIAS_SAMPLE_RANGE_V)
    return kinds


class TestKindDraw:
    """A request's kind is one ``random()`` looked up in the mix's CDF,
    which must equal ``Generator.choice(4, p=...)`` draw for draw."""

    @given(mix=mixes, seed=st.integers(min_value=0, max_value=2**32 - 1),
           draws=st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_cdf_draw_equals_choice(self, mix, seed, draws):
        cdf = mix.probabilities().cumsum()
        cdf /= cdf[-1]
        drawn, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        kinds = [int(cdf.searchsorted(drawn.random(), side="right"))
                 for _ in range(draws)]
        expected = [int(chosen.choice(len(REQUEST_KINDS),
                                      p=mix.probabilities()))
                    for _ in range(draws)]
        assert kinds == expected
        assert drawn.bit_generator.state == chosen.bit_generator.state
        assert all(mix.weights()[kind] > 0.0 for kind in kinds)

    @given(mix=mixes, seed=st.integers(min_value=0, max_value=2**31 - 1),
           arrival=st.sampled_from(ARRIVAL_PROCESSES))
    @settings(max_examples=40, deadline=None)
    def test_trace_kinds_equal_choice_per_station(self, mix, seed, arrival):
        station = "sta-000"
        profile = LoadProfile(rate_rps=150.0, duration_s=0.3,
                              arrival=arrival, mix=mix, seed=seed)
        trace = generate_trace(profile, (station,))
        assert ([request.kind for request in trace.requests]
                == reference_kinds(profile, station))


class TestPerStationStreams:
    def test_adding_a_station_leaves_others_unchanged(self):
        # The aggregate rate scales with the fleet so the *per-station*
        # rate (what each stream actually draws from) stays fixed.
        small = generate_trace(
            LoadProfile(rate_rps=100.0, duration_s=0.5, seed=3),
            station_names(4))
        large = generate_trace(
            LoadProfile(rate_rps=125.0, duration_s=0.5, seed=3),
            station_names(5))

        def per_station(trace):
            events = {}
            for request in trace.requests:
                events.setdefault(request.station, []).append(
                    (request.arrival_s, request.kind, request.vx,
                     request.vy))
            return events

        small_events, large_events = per_station(small), per_station(large)
        for name in station_names(4):
            assert small_events.get(name) == large_events.get(name)

    def test_stations_draw_distinct_streams(self):
        trace = generate_trace(
            LoadProfile(rate_rps=400.0, duration_s=0.5, seed=3), STATIONS)
        arrivals = {}
        for request in trace.requests:
            arrivals.setdefault(request.station, []).append(
                request.arrival_s)
        sequences = [tuple(times) for times in arrivals.values()]
        assert len(set(sequences)) == len(sequences)


class TestArrivalProcesses:
    @pytest.mark.parametrize("arrival", ["poisson", "uniform", "burst"])
    def test_arrivals_ordered_and_inside_duration(self, arrival):
        profile = LoadProfile(rate_rps=300.0, duration_s=0.5,
                              arrival=arrival, seed=11)
        trace = generate_trace(profile, STATIONS)
        times = [request.arrival_s for request in trace.requests]
        assert times == sorted(times)
        assert all(0.0 <= at < profile.duration_s for at in times)
        assert [request.request_id for request in trace.requests] \
            == list(range(len(trace)))

    def test_uniform_interarrivals_bounded(self):
        profile = LoadProfile(rate_rps=100.0, duration_s=2.0,
                              arrival="uniform", seed=5)
        trace = generate_trace(profile, station_names(1))
        rate = profile.rate_rps  # one station carries the full rate
        times = [request.arrival_s for request in trace.requests]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps and all(
            0.5 / rate <= gap <= 1.5 / rate for gap in gaps)

    def test_burst_arrivals_stay_inside_burst_windows(self):
        profile = LoadProfile(rate_rps=200.0, duration_s=2.0,
                              arrival="burst", seed=5, burst_cycle_s=0.5,
                              burst_fraction=0.25)
        trace = generate_trace(profile, station_names(1))
        assert len(trace) > 0
        for request in trace.requests:
            phase = request.arrival_s % profile.burst_cycle_s
            assert phase <= (profile.burst_fraction * profile.burst_cycle_s
                             + 1e-9)

    def test_measure_only_mix_emits_only_measures(self):
        profile = LoadProfile(rate_rps=200.0, duration_s=0.5,
                              mix=MEASURE_ONLY, seed=2)
        trace = generate_trace(profile, STATIONS)
        assert {request.kind for request in trace.requests} == {"measure"}

    def test_voltages_inside_paper_window(self):
        trace = generate_trace(
            LoadProfile(rate_rps=300.0, duration_s=0.5, seed=9), STATIONS)
        low_v, high_v = BIAS_SAMPLE_RANGE_V
        for request in trace.requests:
            assert low_v <= request.vx <= high_v
            assert low_v <= request.vy <= high_v


class TestValidation:
    def test_negative_mix_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RequestMix(measure=-0.1)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_mix_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            RequestMix(optimize=weight)

    def test_all_zero_mix_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RequestMix(measure=0.0, optimize=0.0, schedule=0.0, health=0.0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"rate_rps": 0.0}, "rate"),
        ({"duration_s": -1.0}, "duration"),
        ({"arrival": "bursty"}, "arrival"),
        ({"strategy": "round-robin"}, "strategy"),
        ({"burst_fraction": 0.0}, "burst fraction"),
        ({"rate_rps": float("nan")}, "rate_rps must be finite"),
        ({"rate_rps": float("inf")}, "rate_rps must be finite"),
        ({"duration_s": float("nan")}, "duration_s must be finite"),
        ({"duration_s": float("inf")}, "duration_s must be finite"),
        ({"burst_factor": float("nan")}, "burst_factor must be finite"),
        ({"burst_fraction": float("nan")}, "burst_fraction must be finite"),
        ({"burst_cycle_s": float("nan")}, "burst_cycle_s must be finite"),
    ])
    def test_profile_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoadProfile(**kwargs)

    def test_duplicate_stations_rejected(self):
        profile = LoadProfile()
        with pytest.raises(ValueError, match="unique"):
            generate_trace(profile, ("sta-000", "sta-000"))

    def test_station_names_zero_padded(self):
        assert station_names(3) == ("sta-000", "sta-001", "sta-002")
        assert station_names(2, prefix="desk")[0] == "desk-000"
        with pytest.raises(ValueError):
            station_names(0)
