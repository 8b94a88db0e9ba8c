"""Every demo runs to the end and writes nothing to stderr, and README's
library example runs as written."""

import math
import os
import re
import subprocess
import sys

import pytest

import liprec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")
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


def test_readme_library_example_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    alpha, c, se = (float(v) for v in capsys.readouterr().out.split())
    # the example's model solves alpha = 1.5 in closed form
    assert abs(alpha - 1.5) < 1e-6
    assert math.isfinite(c) and 0 < se < c
