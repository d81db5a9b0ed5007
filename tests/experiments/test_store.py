"""ResultStore: content keys, fail-open reads, eviction, warm runs.

The disk tier's promises: entries are keyed by (experiment, resolved
parameters, code fingerprint) so edited code can never serve a stale
result; corrupt or truncated entries are recomputed, never raised; and
a second ``run_all`` against a warm store performs **zero** probe
evaluations — verified through the budget engine's own
``probe_evaluations`` instrumentation counter, not timing.
"""

import json

import pytest

from repro.channel.link import probe_evaluations
from repro.experiments.artifacts import payload_equal
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import Runner
from repro.experiments.store import (
    STORE_FORMAT,
    ResultStore,
    code_fingerprint,
    content_key,
)

#: A cheap deterministic experiment for single-entry tests.
NAME = "fig12"


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture(scope="module")
def result():
    return Runner(REGISTRY).run(NAME, smoke=True)


class TestContentKeys:
    def test_key_depends_on_every_component(self, result):
        base = content_key(NAME, result.params, "f" * 16)
        assert content_key("fig17", result.params, "f" * 16) != base
        assert content_key(NAME, {**result.params, "distance_m": 9.9},
                           "f" * 16) != base
        assert content_key(NAME, result.params, "0" * 16) != base
        assert content_key(NAME, result.params, "f" * 16) == base

    def test_key_ignores_parameter_order(self, result):
        params = dict(result.params)
        reordered = dict(reversed(list(params.items())))
        assert (content_key(NAME, params, "f" * 16)
                == content_key(NAME, reordered, "f" * 16))

    def test_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestRoundTrip:
    def test_put_get_payload_equality(self, store, result):
        store.put(result)
        restored = store.get(NAME, result.params)
        assert restored is not None
        assert restored.equal(result)
        assert (NAME, result.params) in store
        assert len(store) == 1
        assert store.keys() == [f"{NAME}--{store.key_for(NAME, result.params)}"]

    def test_entry_is_one_compact_json_value(self, store, result):
        path = store.put(result)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        entry = json.loads(text)
        assert entry["format"] == STORE_FORMAT
        assert text == json.dumps(entry)

    def test_indented_entry_is_still_a_hit(self, store, result):
        path = store.put(result)
        entry = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(entry, indent=2), encoding="utf-8")
        restored = store.get(NAME, result.params)
        assert restored is not None and restored.equal(result)
        assert store.stats.hits == 1 and store.stats.corrupt == 0

    def test_missing_entry_is_a_plain_miss(self, store, result):
        assert store.get(NAME, result.params) is None
        stats = store.stats
        assert stats.misses == 1 and stats.corrupt == 0

    def test_stats_and_describe(self, store, result):
        store.put(result)
        store.get(NAME, result.params)
        summary = store.describe()
        assert summary["entries"] == 1
        assert summary["hits"] == 1 and summary["writes"] == 1
        assert summary["per_experiment"] == {NAME: 1}
        assert summary["fingerprint"] == store.fingerprint
        assert summary["total_bytes"] > 0


class TestFailOpenReads:
    def _mangle(self, store, result, text):
        path = store.put(result)
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize("text", [
        "",                                   # truncated to nothing
        '{"format": "repro-result-store/v1"', # cut mid-JSON
        "not json at all",
        json.dumps({"format": "some-other/v9", "result": {}}),
        json.dumps({"format": STORE_FORMAT}), # no result envelope
        json.dumps({"format": STORE_FORMAT,   # parameters no longer valid
                    "result": {"experiment": NAME,
                               "params": {"bogus_knob": 1},
                               "payload": None}}),
    ])
    def test_mangled_entry_is_recomputed_not_raised(self, store, result,
                                                    text):
        path = self._mangle(store, result, text)
        assert store.get(NAME, result.params) is None
        assert not path.exists()  # removed so the rewrite starts clean
        stats = store.stats
        assert stats.corrupt == 1 and stats.misses == 1

    def test_runner_recomputes_over_corrupt_entry(self, tmp_path, result):
        runner = Runner(REGISTRY, store=tmp_path / "store")
        first = runner.run(NAME, smoke=True)
        runner.store.path_for(NAME, first.params).write_text(
            "{truncated", encoding="utf-8")
        fresh = Runner(REGISTRY, store=tmp_path / "store")
        again = fresh.run(NAME, smoke=True)
        assert again.equal(result)
        assert fresh.store.stats.corrupt == 1
        # ... and the recompute healed the entry on disk.
        assert fresh.store.get(NAME, first.params) is not None


class TestEviction:
    def test_evict_one_run_by_key(self, store, result):
        store.put(result)
        other = Runner(REGISTRY).run(NAME, smoke=True, distance_m=0.30)
        store.put(other)
        assert len(store) == 2
        assert store.evict(NAME, result.params) == 1
        assert store.get(NAME, result.params) is None
        assert store.get(NAME, other.params) is not None

    def test_evict_every_run_of_an_experiment(self, store, result):
        store.put(result)
        store.put(Runner(REGISTRY).run(NAME, smoke=True, distance_m=0.30))
        assert store.evict(NAME) == 2
        assert len(store) == 0
        assert store.stats.evictions == 2

    def test_evicting_a_missing_entry_is_zero(self, store, result):
        assert store.evict(NAME, result.params) == 0

    def test_clear(self, store, result):
        store.put(result)
        assert store.clear() == 1
        assert len(store) == 0


class TestFingerprintInvalidation:
    def test_code_change_makes_entries_unreachable(self, tmp_path, result):
        before = ResultStore(tmp_path, fingerprint="aaaa")
        before.put(result)
        after = ResultStore(tmp_path, fingerprint="bbbb")
        assert after.get(NAME, result.params) is None
        # The old entry still exists on disk — unreachable, not wrong.
        assert len(after) == 1
        assert (NAME, result.params) not in after


class TestWarmStoreRuns:
    def test_second_run_all_performs_zero_probe_evaluations(self, tmp_path):
        cold = Runner(REGISTRY, store=tmp_path / "store")
        first = cold.run_all(tag="figure", smoke=True)
        assert len(cold.store) == len(first)

        warm = Runner(REGISTRY, store=tmp_path / "store")
        before = probe_evaluations()
        second = warm.run_all(tag="figure", smoke=True)
        assert probe_evaluations() == before  # zero budget-engine calls
        assert warm.store.stats.hits == len(second)
        for ours, theirs in zip(first, second):
            assert ours.equal(theirs)

    def test_store_results_isolated_from_caller_mutation(self, tmp_path):
        runner = Runner(REGISTRY, store=tmp_path / "store")
        first = runner.run(NAME, smoke=True)
        first.params["distance_m"] = -1.0
        again = Runner(REGISTRY, store=tmp_path / "store").run(NAME,
                                                               smoke=True)
        assert again.params["distance_m"] != -1.0
        assert payload_equal(again.payload,
                             Runner(REGISTRY).run(NAME, smoke=True).payload)
