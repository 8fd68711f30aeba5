"""Every demo script and every README python block runs to completion;
each checks its own results."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lasr import PhantomSpec, gen_frame

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(script, tmp_path):
    run_python([str(script)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    """Each fenced python block of README.md, in a directory holding the
    ``frame.txt`` its Library block reads."""
    assert README_BLOCKS
    np.savetxt(tmp_path / "frame.txt", gen_frame(PhantomSpec(seed=3))[0].values)
    for k, block in enumerate(README_BLOCKS):
        (tmp_path / f"block{k}.py").write_text(block)
        run_python([f"block{k}.py"], tmp_path)
