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
PINNED = "f1fa9e0ace4503ca9c2a0c78add506120a9154e49dd8c4c1451025c52c4c399f"


def test_byte_grid_seed_0_is_pinned():
    env = dict(os.environ, PB_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_grid.py"), "--seed", "0"],
                         env=env, capture_output=True, check=True, timeout=600).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED
