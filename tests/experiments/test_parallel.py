"""Parallel executor: cross-process determinism and serial identity.

The acceptance surface of the parallel plane: ``run_all(workers=N)``
is ``payload_equal`` (<= 1e-9) to the serial path for **every**
registered experiment — including the seeded ones (fig18/19, fig20,
fig23, fault_degradation), whose RNG streams derive from their own
parameters and therefore cannot depend on worker assignment — while
``workers`` absent/0/1 never constructs a pool at all.  Plus: the
parent's two-tier cache ends up exactly as a serial run would leave
it, and the ProgressReporter does honest slice accounting.
"""

import io

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import ProgressReporter, default_mp_context
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import Runner

SEEDED = {"fig18_19", "fig20", "fig23", "fault_degradation"}


@pytest.fixture(scope="module")
def serial_results():
    return {result.name: result
            for result in Runner(REGISTRY).run_all(smoke=True)}


@pytest.fixture(scope="module")
def parallel_run():
    runner = Runner(REGISTRY)
    results = runner.run_all(smoke=True, workers=2)
    return runner, results


class TestSerialIdentity:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_no_pool_is_ever_constructed(self, workers, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("serial path must not reach the executor")

        monkeypatch.setattr(parallel, "run_all_parallel", boom)
        results = Runner(REGISTRY).run_all(tag="figure", smoke=True,
                                           workers=workers)
        assert len(results) == len(REGISTRY.all("figure"))

    def test_default_mp_context_is_a_real_method(self):
        import multiprocessing
        assert default_mp_context() in \
            multiprocessing.get_all_start_methods()


class TestCrossProcessDeterminism:
    def test_covers_every_registered_experiment(self, parallel_run):
        _, results = parallel_run
        assert [r.name for r in results] == list(REGISTRY.names())

    def test_seeded_experiments_are_registered(self):
        assert SEEDED <= set(REGISTRY.names())

    def test_sharded_equals_serial_for_every_experiment(
            self, parallel_run, serial_results):
        _, results = parallel_run
        mismatched = [result.name for result in results
                      if not result.equal(serial_results[result.name])]
        assert mismatched == []

    def test_parent_cache_matches_a_serial_run(self, parallel_run):
        runner, results = parallel_run
        # Every absorbed result must be servable from the memory tier
        # without recomputation.
        hits_before = runner.cache_info[0]
        for result in results:
            assert runner.run(result.name, smoke=True).equal(result)
        hits, misses, entries = runner.cache_info
        assert hits == hits_before + len(results)
        assert entries == len(results)

    def test_second_parallel_run_is_all_cached(self, parallel_run):
        runner, results = parallel_run
        progress = ProgressReporter(total=len(results),
                                    stream=io.StringIO())
        again = runner.run_all(smoke=True, workers=2, progress=progress)
        assert progress.cached == len(results)
        assert progress.computed == 0
        for ours, theirs in zip(results, again):
            assert ours.equal(theirs)

    def test_parallel_run_populates_an_attached_store(self, tmp_path):
        runner = Runner(REGISTRY, store=tmp_path / "store")
        results = runner.run_all(tag="figure", smoke=True, workers=2)
        assert len(runner.store) == len(results)
        assert runner.store.stats.writes == len(results)

    def test_overrides_reach_the_workers(self, tmp_path):
        runner = Runner(REGISTRY)
        results = runner.run_all(tag="figure", smoke=True, workers=2,
                                 overrides={"fig12": {"distance_m": 0.30}})
        by_name = {result.name: result for result in results}
        assert by_name["fig12"].params["distance_m"] == 0.30
        serial = Runner(REGISTRY).run("fig12", smoke=True, distance_m=0.30)
        assert by_name["fig12"].equal(serial)

    def test_unknown_override_name_fails_loudly(self):
        with pytest.raises(KeyError):
            Runner(REGISTRY).run_all(smoke=True, workers=2,
                                     overrides={"nope": {}})


class TestProgressReporter:
    def test_slice_accounting(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=3, stream=stream)
        assert progress.eta_seconds() is None
        progress.claim("a")
        progress.finish("a", "ok", elapsed=0.01)
        progress.claim("b")
        progress.finish("b", "cached")
        progress.claim("c")
        progress.finish("c", "failed")
        assert (progress.claimed, progress.done) == (3, 3)
        assert progress.computed == 2  # ok + failed both ran
        assert progress.cached == 1
        assert progress.failed == 1
        assert progress.eta_seconds() == 0.0

    def test_plain_stream_keeps_full_history(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=2, label="suite", stream=stream)
        progress.claim("fig12")
        progress.finish("fig12", "ok", elapsed=0.5)
        lines = stream.getvalue().splitlines()
        assert any("claimed fig12" in line for line in lines)
        assert any(line.startswith("fig12") and "ok" in line
                   for line in lines)
        assert all("\r" not in line for line in lines)
        assert "[suite] claimed 1/2" in stream.getvalue()

    def test_line_and_summary_render(self):
        progress = ProgressReporter(total=4, stream=io.StringIO())
        progress.claim("a")
        progress.finish("a", "ok")
        line = progress.line()
        assert "claimed 1/4" in line and "done 1/4" in line
        assert "eta" in line
        summary = progress.summary()
        assert summary.startswith("1/4 slices")
        assert "1 computed, 0 cached" in summary

    def test_disabled_reporter_stays_silent(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=1, stream=stream, enabled=False)
        progress.claim("a")
        progress.finish("a", "ok")
        assert stream.getvalue() == ""

    def test_timed_records_elapsed(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=1, stream=stream)
        with progress.timed("fig12", "ok"):
            pass
        assert progress.done == 1
        assert "fig12" in stream.getvalue()
