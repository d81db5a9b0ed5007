"""Baseline tests: budgeted matching, expiry, justification hygiene."""

import json

import pytest

from repro.lint import Baseline, BaselineEntry, BaselineError, Finding
from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION
from repro.lint.findings import Severity


def finding(rule="RPR001", path="src/mod.py", line=1,
            message="inline dB conversion expression outside repro.units"):
    return Finding(rule=rule, severity=Severity.WARNING, path=path,
                   line=line, col=0, message=message)


class TestMatching:
    def test_baselined_findings_are_absorbed(self):
        baseline = Baseline([BaselineEntry(
            rule="RPR001", path="src/mod.py",
            message=finding().message, count=2, justification="known debt")])
        result = baseline.filter([finding(line=3), finding(line=9)])
        assert result.new_findings == []
        assert result.suppressed_count == 2
        assert result.expired == []

    def test_matching_is_line_independent(self):
        baseline = Baseline([BaselineEntry(
            rule="RPR001", path="src/mod.py",
            message=finding().message, count=1, justification="known debt")])
        assert baseline.filter([finding(line=999)]).new_findings == []

    def test_occurrences_beyond_the_count_are_new(self):
        baseline = Baseline([BaselineEntry(
            rule="RPR001", path="src/mod.py",
            message=finding().message, count=1, justification="known debt")])
        result = baseline.filter([finding(line=3), finding(line=9)])
        assert len(result.new_findings) == 1
        assert result.suppressed_count == 1

    def test_unmatched_entries_expire(self):
        baseline = Baseline([BaselineEntry(
            rule="RPR001", path="src/gone.py",
            message="old message", count=1, justification="paid off")])
        result = baseline.filter([finding()])
        assert [entry.path for entry in result.expired] == ["src/gone.py"]
        assert len(result.new_findings) == 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        baseline = Baseline([BaselineEntry(
            rule="RPR001", path="src/mod.py", message="m", count=3,
            justification="hot kernel")])
        target = tmp_path / "baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.entries == baseline.entries

    def test_missing_justification_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 1, "entries": [
            {"rule": "RPR001", "path": "src/mod.py", "message": "m",
             "count": 1, "justification": "  "}]}))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(target)

    def test_malformed_json_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(BaselineError, match="malformed"):
            Baseline.load(target)

    def test_non_object_payload_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("[]")
        with pytest.raises(BaselineError, match="entries"):
            Baseline.load(target)


class TestFromFindings:
    def test_groups_by_fingerprint_with_counts(self):
        baseline = Baseline.from_findings(
            [finding(line=3), finding(line=9),
             finding(rule="RPR006", message="bare sleep")])
        assert [(e.rule, e.count) for e in baseline.entries] == [
            ("RPR001", 2), ("RPR006", 1)]
        assert all(e.justification == PLACEHOLDER_JUSTIFICATION
                   for e in baseline.entries)

    def test_previous_justifications_carry_over(self):
        previous = Baseline([BaselineEntry(
            rule="RPR001", path="src/mod.py",
            message=finding().message, count=1,
            justification="reviewed: hot kernel")])
        rebuilt = Baseline.from_findings(
            [finding(), finding(rule="RPR006", message="bare sleep")],
            previous=previous)
        by_rule = {entry.rule: entry for entry in rebuilt.entries}
        assert by_rule["RPR001"].justification == "reviewed: hot kernel"
        assert by_rule["RPR006"].justification == PLACEHOLDER_JUSTIFICATION
