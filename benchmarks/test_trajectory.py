"""The benchmark archive is written only on request.

A plain test run must leave the tracked ``BENCH_*.json`` files alone;
only runs that set ``REPRO_BENCH_ARCHIVE=1`` archive their rows.
"""

import json

import trajectory


def _point_archive_at(monkeypatch, tmp_path):
    monkeypatch.setattr(trajectory, "REPO_ROOT", tmp_path)
    return trajectory.bench_archive_path(7)


def test_rows_are_not_written_without_the_switch(monkeypatch, tmp_path):
    monkeypatch.delenv(trajectory.ARCHIVE_ENV, raising=False)
    path = _point_archive_at(monkeypatch, tmp_path)
    assert trajectory.write_bench_rows("demo", [{"wall_s": 1.0}], pr=7) is None
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_other_switch_values_do_not_write(monkeypatch, tmp_path):
    monkeypatch.setenv(trajectory.ARCHIVE_ENV, "0")
    path = _point_archive_at(monkeypatch, tmp_path)
    assert trajectory.write_bench_rows("demo", [{"wall_s": 1.0}], pr=7) is None
    assert not path.exists()


def test_switch_on_writes_and_replaces_the_block(monkeypatch, tmp_path):
    monkeypatch.setenv(trajectory.ARCHIVE_ENV, "1")
    path = _point_archive_at(monkeypatch, tmp_path)
    assert trajectory.write_bench_rows("demo", [{"wall_s": 1.0}], pr=7) == path
    trajectory.write_bench_rows("demo", [{"wall_s": 2.0}], pr=7)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["pr"] == 7
    assert data["benchmarks"] == [
        {"benchmark": "demo", "meta": {}, "rows": [{"wall_s": 2.0}]}]
