"""The names perfbench's tracer wraps exist in the package.

perfbench/tracer.py looks up each traced function and RngStream method by
name at install time, so a deleted or renamed one fails every traced
benchmark repetition. Installing the tracer in a fresh interpreter, with
every package module imported, turns that into a test failure here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import numpy as np
import robustaug.augment, robustaug.cli, robustaug.corrupt, robustaug.fourier
import robustaug.images, robustaug.metrics, robustaug.model, robustaug.parallel, robustaug.rng
import tracer

t = tracer.Tracer()
tracer.install(t)
spec = robustaug.augment.AugmentSpec(kind="gaussian", sigma_max=1.0)
robustaug.augment.run_pipeline(np.zeros((4, 4, 1)), spec, 0, 0, "guard")
stream = robustaug.rng.derive_stream(0, 0, "guard")
stream.next_int(0, 9)
stream.normal_field((2, 2))
robustaug.parallel.indexed_map(lambda i: i, 2)
print(" ".join(sorted({span[tracer.NAME] for span in t.take()})))
"""


def test_tracer_installs_and_records_the_traced_names():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    names = set(done.stdout.split())
    assert {"rng.derive", "augment.pipeline", "rng.scalar", "rng.bulk", "parallel.map"} <= names
