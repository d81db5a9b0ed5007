"""CLI tests: selection, JSON output, exit codes, baseline lifecycle.

``main`` is exercised in-process with injected streams; baseline runs
happen inside ``tmp_path`` so the repo's real ``lint-baseline.json``
is never touched.
"""

import io
import json
from pathlib import Path

import pytest

from repro.lint import main
from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "rpr001_bad.py"
GOOD = FIXTURES / "rpr001_good.py"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_findings_exit_nonzero(self):
        code, out, _ = run_cli(str(BAD), "--no-baseline")
        assert code == 1
        assert "RPR001" in out

    def test_clean_file_exits_zero(self):
        code, out, _ = run_cli(str(GOOD), "--no-baseline")
        assert code == 0
        assert "0 new finding(s)" in out

    def test_missing_path_is_a_usage_error(self):
        code, _, err = run_cli("no/such/dir")
        assert code == 2
        assert "no such file" in err

    def test_unknown_rule_is_a_usage_error(self):
        code, _, err = run_cli(str(BAD), "--select", "RPR999")
        assert code == 2
        assert "unknown rule" in err


class TestSelection:
    def test_select_runs_only_the_named_rules(self):
        code, out, _ = run_cli(str(BAD), "--select", "RPR006",
                               "--no-baseline")
        assert code == 0
        assert "RPR001" not in out

    def test_select_accepts_comma_lists(self):
        code, out, _ = run_cli(str(BAD), "--select", "RPR001,RPR006",
                               "--no-baseline")
        assert code == 1
        assert "RPR001" in out


class TestJsonOutput:
    def test_payload_shape(self):
        code, out, _ = run_cli(str(BAD), "--json", "--no-baseline")
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == 1
        assert payload["baselined_count"] == 0
        assert payload["expired_baseline"] == []
        rules = {f["rule"] for f in payload["new_findings"]}
        assert rules == {"RPR001"}
        first = payload["new_findings"][0]
        assert {"rule", "severity", "path", "line", "col", "message",
                "suggestion"} <= set(first)

    def test_clean_run_emits_empty_findings(self):
        code, out, _ = run_cli(str(GOOD), "--json", "--no-baseline")
        assert code == 0
        assert json.loads(out)["new_findings"] == []


class TestBaselineLifecycle:
    def test_write_then_pass_then_expire(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        # 1. Acknowledge the debt.
        code, out, _ = run_cli(str(BAD), "--write-baseline",
                               "--baseline", str(baseline))
        assert code == 0 and baseline.exists()
        assert PLACEHOLDER_JUSTIFICATION in baseline.read_text()
        # 2. The acknowledged findings no longer fail the build.
        code, out, _ = run_cli(str(BAD), "--baseline", str(baseline))
        assert code == 0
        assert "5 baselined" in out
        # 3. Once fixed, the stale entries are reported as expired...
        code, out, _ = run_cli(str(GOOD), "--baseline", str(baseline))
        assert code == 0
        assert "expired baseline entry" in out
        # ... and --strict-baseline turns them into a failure.
        code, _, _ = run_cli(str(GOOD), "--baseline", str(baseline),
                             "--strict-baseline")
        assert code == 1

    def test_rewrite_preserves_justifications(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        run_cli(str(BAD), "--write-baseline", "--baseline", str(baseline))
        data = json.loads(baseline.read_text())
        for entry in data["entries"]:
            entry["justification"] = "reviewed: fixture debt"
        baseline.write_text(json.dumps(data))
        run_cli(str(BAD), "--write-baseline", "--baseline", str(baseline))
        rewritten = json.loads(baseline.read_text())
        assert all(entry["justification"] == "reviewed: fixture debt"
                   for entry in rewritten["entries"])

    def test_justification_less_baseline_rejected(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "entries": [
            {"rule": "RPR001", "path": "x.py", "message": "m", "count": 1,
             "justification": ""}]}))
        code, _, err = run_cli(str(BAD), "--baseline", str(baseline))
        assert code == 2
        assert "justification" in err


class TestIntrospection:
    def test_list_rules_names_exactly_the_five_rules(self):
        code, out, _ = run_cli("--list-rules")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPR001", "RPR002", "RPR005", "RPR006", "RPR008"]

    def test_explain_prints_the_rationale(self):
        code, out, _ = run_cli("--explain", "RPR001")
        assert code == 0
        assert "naming grammar" in out

    def test_explain_unknown_rule(self):
        code, out, _ = run_cli("--explain", "RPR999")
        assert code == 2
        assert "unknown rule" in out


@pytest.mark.parametrize("flag", ["--select", "--baseline", "--explain"])
def test_flags_requiring_values_fail_cleanly(flag, capsys):
    # argparse exits with status 2 on a missing value; main converts
    # that SystemExit into a return code.
    code = main([flag], stdout=io.StringIO(), stderr=io.StringIO())
    capsys.readouterr()
    assert code == 2
