"""The byte pin: tools/byte_grid.py at seed 0 prints the same hashes.

The grid's output covers the model bytes, training log, replay, SE-attached
model, split path and predictions of 180 small fits, so a change that moves
any of them by accident fails here. A change that moves them on purpose
updates PINNED in the same commit and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = "6ed7b7f15fd0651b4e7421163c64c4db1784245240156f6d8c99c5599b2a8121"


def test_byte_grid_seed_0_is_pinned():
    env = dict(os.environ, PB_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_grid.py"), "--seed", "0"],
                         env=env, capture_output=True, check=True, timeout=600).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED
