"""Per-rule fixture tests: each rule fires on its triggering fixture
(and only there) and stays silent on the paired clean fixture.

The fixtures under ``tests/lint/fixtures/`` claim their roles with the
``# repro-lint: role=...`` pragma, so they exercise exactly the rule
paths a real ``src`` / ``hot`` module would — despite
living under ``tests/`` (the directory walker skips the corpus; these
tests lint the files explicitly).
"""

from pathlib import Path

import pytest

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture, rule id, expected finding count) — the bad fixtures each
#: encode a known number of violations in their docstrings.
BAD_FIXTURES = [
    ("rpr001_bad.py", "RPR001", 5),
    ("rpr002_bad.py", "RPR002", 5),
    ("rpr005_bad.py", "RPR005", 4),
    ("rpr006_bad.py", "RPR006", 5),
    ("rpr008_bad.py", "RPR008", 6),
]

GOOD_FIXTURES = [
    "rpr001_good.py",
    "rpr002_good.py",
    "rpr005_good.py",
    "rpr006_good.py",
    "rpr008_good.py",
]


@pytest.mark.parametrize("name,rule,count", BAD_FIXTURES)
class TestTriggeringFixtures:
    def test_expected_finding_count(self, name, rule, count):
        findings = lint_file(FIXTURES / name)
        matching = [f for f in findings if f.rule == rule]
        assert len(matching) == count, [f.render() for f in findings]

    def test_no_other_rule_fires(self, name, rule, count):
        findings = lint_file(FIXTURES / name)
        assert {f.rule for f in findings} == {rule}, \
            [f.render() for f in findings]

    def test_findings_carry_location_and_suggestion(self, name, rule, count):
        for finding in lint_file(FIXTURES / name):
            assert finding.path.endswith(name)
            assert finding.line > 0
            assert finding.message
            assert finding.suggestion


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_clean_fixture_has_no_findings(name):
    findings = lint_file(FIXTURES / name)
    assert findings == [], [f.render() for f in findings]
