"""Every demo runs to the end and writes nothing to stderr."""

import os
import subprocess
import sys

import pytest

import liprec

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMOS = sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_clean(name):
    src = os.path.dirname(os.path.dirname(liprec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMO_DIR, name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
