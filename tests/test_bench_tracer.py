"""The benchmark's tracer wraps library names it looks up by string; renaming
one of them must fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Install patches classes and modules globally, so it runs in its own process;
# one wrapped checker call shows that the wrappers pass results through.
SCRIPT = """
import cat0feas as cf
from tracer import Tracer

tracer = Tracer()
tracer.install()
e2 = cf.EuclideanSpace(2)
proj = cf.ProjectionMap(cf.EuclideanBall(e2, (0.0, 0.0), 1.0))
assert cf.mappings.check_p2(proj, e2.point((2, 0)), e2.point((0, 3))).ok
assert tracer.stats["mappings.check_p2"].calls == 1
"""


def test_tracer_installs():
    path = os.pathsep.join(
        filter(None, [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
