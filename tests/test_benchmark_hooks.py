"""The benchmark's tracer (perfbench/spans.py) wraps probalign functions by
module attribute, some of them imported only so the tracer can wrap them
there (``cli.auroc``). Installing it must keep working, so that removing such
a name breaks this test rather than ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
