"""The demos run end to end, each in its own interpreter, and print what
they printed when their digests were pinned.

constructive_regulars.py prints the stabilization degree and dim of each
certificate's g(z), which full mode reads off the word echelon and
reduced mode off the exact filtration; the other two demos print
verdicts, subalgebra reports and Killing pairings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kregular

PACKAGE_ROOT = Path(kregular.__file__).resolve().parent.parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
GOLDEN_DEMOS = {
    "constructive_regulars.py": ("17000b58ece56251036415cefea90ca7"
                                 "364dcf69fbba5c15039898029ee82e78"),
    "nullcone_walk.py": ("76e9d799388b980742d96dbb48accc04"
                         "3e69f7e9ee82133600705865cc6cf142"),
    "regularity_tour.py": ("f545eb06760cfa34d7c45e4834d0efde"
                           "202e71009de36ac090e1288f944e24c0"),
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(GOLDEN_DEMOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DEMOS))
def test_demo_stdout_is_golden(name):
    env = dict(os.environ)
    paths = [str(PACKAGE_ROOT), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_DEMOS[name]
