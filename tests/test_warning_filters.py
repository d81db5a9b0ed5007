"""Tier-1's warning filters: report a failing property test, fail on
our own deprecations.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error,
except the one libcst triggers through ``mypy_extensions.TypedDict``.
Hypothesis imports libcst inside pytest's report hook when a ``@given``
test fails, so without that exception the warning is raised in the hook
and the run ends in ``INTERNALERROR`` without the falsifying example.
Each check runs a fresh pytest process under the repository's own
filter list.
"""

import json
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def session(pytester):
    """A pytester directory configured with the repository's filters."""
    with PYPROJECT.open("rb") as handle:
        filters = tomllib.load(handle)["tool"]["pytest"]["ini_options"][
            "filterwarnings"]
    # A JSON string is a TOML basic string with the same escapes.
    lines = ",\n".join(f"    {json.dumps(value)}" for value in filters)
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = [\n{lines},\n]\n")
    return pytester


def test_failing_property_test_reports_its_falsifying_example(session):
    session.makepyfile(test_property="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers(min_value=0, max_value=10))
        def test_small(value):
            assert value < 5
    """)
    result = session.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1)
    assert "Falsifying example" in output
    assert "value=5" in output


def test_our_own_deprecation_warnings_still_fail(session):
    session.mkdir("src")
    session.path.joinpath("src", "legacy_api.py").write_text(
        "import warnings\n\n"
        "def old_call():\n"
        "    warnings.warn('old_call is deprecated', DeprecationWarning)\n"
        "    return 1\n")
    session.makepyfile(test_deprecations="""
        import sys
        import warnings

        sys.path.insert(0, "src")
        import legacy_api

        def test_source_deprecation():
            assert legacy_api.old_call() == 1

        def test_test_deprecation():
            warnings.warn("helper is deprecated", DeprecationWarning)

        def test_same_message_outside_libcst():
            warnings.warn("mypy_extensions.TypedDict is deprecated",
                          DeprecationWarning)
    """)
    result = session.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=3)
    assert "INTERNALERROR" not in result.stdout.str()
