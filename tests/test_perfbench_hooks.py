"""The benchmark's span tracer must still find every function it wraps.

``perfbench/tracer.py`` wraps named hardykit functions and the module
bindings other modules import (``verifier.mass``, ``specfun._gk15``, ...);
``Tracer.install()`` raises when one of them is renamed or deleted.  The
install runs in a subprocess so that the wrappers never reach this test
session.  A binding that only the tracer uses is imported with
``# noqa: F401`` and must be one of the tracer's ``ALIASES``.
"""

import ast
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


def _tracer_aliases():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ALIASES" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no ALIASES")


def test_unused_imports_are_tracer_aliases():
    # a binding kept only for the tracer carries "# noqa: F401"; each such
    # import must bind an unused name that ALIASES lists, so that the
    # tracer-only bindings stay in that one list
    aliases = _tracer_aliases()
    for path in sorted((ROOT / "src" / "hardykit").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if "noqa: F401" not in text:
                continue
            unused = {(path.stem, a.asname or a.name) for a in node.names
                      if (a.asname or a.name) not in used}
            assert unused, f"{path.name}:{node.lineno}: noqa on a used import"
            assert unused <= aliases, (
                f"{path.name}:{node.lineno}: {sorted(unused - aliases)} "
                "not in perfbench/tracer.py's ALIASES")
