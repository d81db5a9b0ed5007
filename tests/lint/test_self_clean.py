"""The repo passes its own invariant checker.

This is the self-hosting acceptance test: ``python -m repro.lint src
tests`` (the exact CI invocation) must exit 0 against the checked-in
``lint-baseline.json``, and every baseline entry must carry a real
justification and still match at least one finding.
"""

import ast
import io
from pathlib import Path

import pytest

from repro.lint import Baseline, LintConfig, lint_paths, main
from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION
from repro.lint.engine import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]
ROOTS = [REPO_ROOT / "src", REPO_ROOT / "tests"]


@pytest.fixture()
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


@pytest.fixture(scope="module")
def full_repo_pass():
    """``lint_paths`` over ``src`` and ``tests`` with ``ast.parse``
    counted; returns ``(findings, parsed file names)``."""
    parse = ast.parse
    parsed = []

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return parse(source, filename, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "parse", counting_parse)
        findings = lint_paths(ROOTS, LintConfig())
    return findings, parsed


class TestSelfClean:
    def test_cli_run_is_clean(self, repo_cwd):
        out = io.StringIO()
        code = main(["src", "tests"], stdout=out, stderr=io.StringIO())
        assert code == 0, out.getvalue()

    def test_strict_baseline_run_is_clean(self, repo_cwd):
        # No expired entries either: the checked-in baseline matches
        # the tree exactly.
        out = io.StringIO()
        code = main(["src", "tests", "--strict-baseline"],
                    stdout=out, stderr=io.StringIO())
        assert code == 0, out.getvalue()

    def test_baseline_entries_are_justified_and_live(self, repo_cwd,
                                                     full_repo_pass):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.entries, "baseline unexpectedly empty"
        for entry in baseline.entries:
            assert entry.justification != PLACEHOLDER_JUSTIFICATION, entry
        findings, _ = full_repo_pass
        fingerprints = {
            (f.rule, Path(f.path).relative_to(REPO_ROOT).as_posix(),
             f.message)
            for f in findings}
        for entry in baseline.entries:
            assert entry.key() in fingerprints, \
                f"expired baseline entry: {entry}"

    def test_full_repo_pass_parses_each_file_once(self, full_repo_pass):
        """The work-count twin of the full-repo lint time budget: one
        ``ast.parse`` per linted file, however many rules run."""
        _, parsed = full_repo_pass
        files = [path.as_posix() for path in iter_python_files(ROOTS)]
        assert len(files) > 100
        assert parsed == files
