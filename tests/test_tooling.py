"""The test configuration itself: a failing property must fail like any test."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_failing_property_is_an_ordinary_failure(tmp_path):
    """Reporting a falsified ``@given`` test imports modules that raise
    deprecation warnings; under the repository's warnings-as-errors
    setting this must still end in one failed test (exit 1), not in an
    internal error (exit 3) that stops the rest of the suite."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "-c", str(REPO / "pyproject.toml"), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout


def test_every_traced_name_resolves():
    """Each (module, function) pair that ``lmbench/tracing.py`` wraps exists
    in lingmat, so renaming or deleting a traced function fails here, not
    only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("lmbench_tracing",
                                                  REPO / "lmbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"lingmat.{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"lingmat.{module}"), attr,
                                       None))]
    assert tracing.TRACED and not missing
