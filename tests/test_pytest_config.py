"""The pytest configuration in pyproject.toml, run on a scratch test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(max_examples=5, database=None, deadline=None)
    @given(st.integers())
    def test_fails(x):
        assert x != x


    def test_after():
        pass
""")


def test_failing_hypothesis_test_is_reported(tmp_path):
    # on a failure hypothesis imports libcst, whose import warns with a
    # DeprecationWarning; under error::DeprecationWarning that must not
    # become an internal error: the run reports the failure, goes on to the
    # next test and exits 1
    test = tmp_path / "test_fails.py"
    test.write_text(FAILING, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           str(test)],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout
