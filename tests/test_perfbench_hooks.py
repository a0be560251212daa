"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracer.py`` wraps named hardykit functions and the module
bindings other modules import (``verifier.mass``, ``specfun._gk15``, ...);
``Tracer.install()`` raises when one of them is renamed or deleted.  The
install runs in a subprocess so that the wrappers never reach this test
session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import hardykit.cli\nfrom tracer import Tracer\nTracer().install()\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
