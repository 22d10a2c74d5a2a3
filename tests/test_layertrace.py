"""The benchmark's layer tracer still finds every function it wraps.

`bench/layertrace.py` wraps engine functions by name and raises
`LookupError` when one is gone, since its metrics would otherwise read 0.
Installing it runs in a subprocess, so no wrapper leaks into this one.
"""
import os
import subprocess
import sys
from pathlib import Path

import segrecone

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(segrecone.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         "import layertrace; layertrace.Tracer().install()"],
        cwd=BENCH, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
