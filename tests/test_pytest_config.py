"""The repository's ``pytest.ini`` turns warnings into errors, except the
one hypothesis raises while it reports a failing example."""

import pathlib
import subprocess
import sys

PYTEST_INI = pathlib.Path(__file__).resolve().parent.parent / "pytest.ini"

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_a_fails(n):
    assert n < 0


def test_b_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # with a bare ``filterwarnings = error`` the report-time DeprecationWarning
    # ("mypy_extensions.TypedDict is deprecated") was an INTERNALERROR: the
    # run printed "1 failed" and the second test never ran
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYTEST_INI),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
