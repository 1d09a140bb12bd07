"""The session setup in conftest.py, run in a pytest of its own."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

_FAILING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_later():
    pass
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    # warnings are errors, as in pyproject.toml; the failure must print
    # its example and leave the session running
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    (tmp_path / "test_fails.py").write_text(_FAILING)
    # only hypothesis's plugin: other plugins the interpreter has, such as
    # anyio's, may not import under it
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"))
    out = run.stdout + run.stderr
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
