"""Framework tests: suppressions, roles, discovery, selection.

These lint in-memory source strings through :func:`lint_source`, so
each case controls the path (for role derivation) and the pragma text
precisely.
"""

from pathlib import Path

import pytest

import repro.serve
from repro.lint import LintConfig, lint_source
from repro.lint.base import parse_role_pragma, parse_suppressions
from repro.lint.engine import DEFAULT_EXCLUDES, derive_roles, iter_python_files

SERVE_DIR = Path(repro.serve.__file__).parent
MIXING = "def f(rssi_dbm, noise_mw):\n    return rssi_dbm + noise_mw\n"


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self):
        source = ("def f(rssi_dbm, noise_mw):\n"
                  "    return rssi_dbm + noise_mw  "
                  "# repro-lint: disable=RPR001 -- vendored formula\n")
        assert lint_source(source, "src/mod.py") == []

    def test_wildcard_suppression_covers_every_rule(self):
        source = ("def f(rssi_dbm, noise_mw):\n"
                  "    return rssi_dbm + noise_mw  "
                  "# repro-lint: disable=* -- vendored formula\n")
        assert lint_source(source, "src/mod.py") == []

    def test_suppression_on_other_line_does_not_cover(self):
        source = ("# repro-lint: disable=RPR001 -- wrong line\n"
                  "def f(rssi_dbm, noise_mw):\n"
                  "    return rssi_dbm + noise_mw\n")
        assert rules_of(lint_source(source, "src/mod.py")) == ["RPR001"]

    def test_unjustified_suppression_is_reported(self):
        source = ("def f(rssi_dbm, noise_mw):\n"
                  "    return rssi_dbm + noise_mw  "
                  "# repro-lint: disable=RPR001\n")
        findings = lint_source(source, "src/mod.py")
        assert rules_of(findings) == ["RPR000"]
        assert "justification" in findings[0].message

    def test_parse_suppressions_extracts_rules_and_reason(self):
        source = "x = 1  # repro-lint: disable=RPR001,RPR006 -- because\n"
        (suppression,) = parse_suppressions(source)
        assert suppression.line == 1
        assert suppression.rules == frozenset({"RPR001", "RPR006"})
        assert suppression.reason == "because"


class TestRoles:
    def test_derive_roles_for_source_and_tests(self):
        assert "src" in derive_roles("src/repro/api/session.py")
        assert "test" in derive_roles("tests/channel/test_link.py")
        assert "test" in derive_roles("test_something.py")

    def test_derive_roles_for_hot_and_units(self):
        assert "hot" in derive_roles("src/repro/channel/link.py")
        assert "hot" in derive_roles("src/repro/metasurface/surface.py")
        assert "units" in derive_roles("src/repro/units.py")
        assert "hot" not in derive_roles("src/repro/api/session.py")

    def test_derive_roles_for_faults_and_world(self):
        assert "faults" in derive_roles("src/repro/faults/retry.py")
        assert "world" in derive_roles("src/repro/world/dynamics.py")
        assert "faults" not in derive_roles("src/repro/api/fleet.py")

    def test_derived_roles_are_exactly_the_ones_rules_read(self):
        roles = set()
        for path in ("src/repro/serve/service.py",
                     "src/repro/experiments/figures.py",
                     "src/repro/units.py", "src/repro/core/llama.py",
                     "src/repro/faults/retry.py",
                     "src/repro/world/dynamics.py",
                     "tests/channel/test_link.py"):
            roles |= derive_roles(path)
        assert roles == {"src", "test", "hot", "units", "faults", "world"}

    def test_serving_plane_sleeps_are_rpr006_findings(self):
        source = "import time\n\ndef actor():\n    time.sleep(0.1)\n"
        assert rules_of(lint_source(source, "src/repro/serve/clock.py")) \
            == ["RPR006"]

    def test_virtual_clock_step_is_not_a_retry_loop(self):
        # The clock steps actors with ``next(actor, _DONE)``; the shape
        # ``try: next(actor) except StopIteration: continue`` would be
        # an RPR006 retry-loop finding.
        path = SERVE_DIR / "clock.py"
        assert lint_source(path.read_text(), "src/repro/serve/clock.py") \
            == []

    def test_role_pragma_replaces_derived_roles(self):
        # A units-role file is exempt from RPR001 even when its path
        # says otherwise.
        source = "# repro-lint: role=units\n" + MIXING
        assert lint_source(source, "src/mod.py") == []

    def test_role_pragma_only_scanned_in_header(self):
        source = MIXING + "\n" * 20 + "# repro-lint: role=units\n"
        assert parse_role_pragma(source) is None
        assert rules_of(lint_source(source, "src/mod.py")) == ["RPR001"]


class TestEngine:
    def test_syntax_error_becomes_framework_finding(self):
        findings = lint_source("def broken(:\n", "src/mod.py")
        assert rules_of(findings) == ["RPR000"]
        assert "cannot parse" in findings[0].message

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintConfig(select=frozenset({"RPR999"})).selected_rules()

    def test_select_limits_the_rules_run(self):
        source = ("import time\n"
                  "def f(rssi_dbm, noise_mw):\n"
                  "    time.sleep(1.0)\n"
                  "    return rssi_dbm + noise_mw\n")
        config = LintConfig(select=frozenset({"RPR006"}))
        assert rules_of(lint_source(source, "src/mod.py", config)) \
            == ["RPR006"]

    def test_walker_skips_fixture_corpus(self, tmp_path):
        corpus = tmp_path / "tests" / "lint" / "fixtures"
        corpus.mkdir(parents=True)
        (corpus / "bad.py").write_text("x = 1\n")
        plain = tmp_path / "tests" / "lint" / "test_ok.py"
        plain.write_text("x = 1\n")
        walked = iter_python_files([tmp_path], DEFAULT_EXCLUDES)
        assert plain in walked
        assert corpus / "bad.py" not in walked

    def test_explicit_file_is_never_excluded(self, tmp_path):
        corpus = tmp_path / "tests" / "lint" / "fixtures"
        corpus.mkdir(parents=True)
        target = corpus / "bad.py"
        target.write_text("x = 1\n")
        assert iter_python_files([target], DEFAULT_EXCLUDES) == [target]
