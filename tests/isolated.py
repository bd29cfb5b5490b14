"""Run a snippet in a fresh interpreter: for assertions about what a
code path does (or does not) import, which the test process -- with
everything already loaded -- cannot make."""

import os
import subprocess
import sys

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)


def run_python(script: str) -> None:
    """Execute ``script`` with ``src`` on the path; its assertions (any
    non-zero exit) fail the calling test with the child's stderr."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
