"""Each narrative script in demos/ runs to the end on the public API.

A demo runs in a subprocess with src/ on PYTHONPATH, as the README shows
them, and must exit 0 and print its headline result line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RESULT_LINES = {
    "01_rings_and_cost.py": "six-step demo program: cost 49",
    "02_tree_search.py": "k=4 at capacity 8: 8 classes",
    "03_sixty_matrices.py": "nothing exists below 67: True",
    "04_involutory.py": "bundled catalog of all 18 t=5 entries: 18",
    "05_higher_order.py": "fewest non-identity positions = 5",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(RESULT_LINES)


@pytest.mark.parametrize("name", sorted(RESULT_LINES))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert RESULT_LINES[name] in done.stdout
