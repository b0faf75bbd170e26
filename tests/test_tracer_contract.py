"""The names that ``bench/tracer.py`` patches still exist and are still reached.

The tracer wraps polyspace's functions from outside, so renaming one of them
(or losing ``disk_grid.cache_info``) silently empties a per-layer metric.
This runs the tracer over a refined norm, a limsup check and a
``refine_until`` on small grids in a fresh process and asserts that every
layer they touch records calls.  ``bench/`` is only read.
"""

import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
import polyspace as ps

tracer = Tracer()
tracer.install()
settings = ps.QuadSettings(n_r=8, n_theta=16, max_level=1)
f = ps.from_monomials({(1, 2): 1.0, (0, 1): 0.5j}, q=2)
spec = ps.SpaceSpec(domain=ps.Domain.DISK, kind=ps.SpaceKind.BESOV, p=2.5,
                    weight=ps.Uniform())
ps.space_norm(f, spec, settings)
print(json.dumps(tracer.layers()))
tracer.spans.clear()
ps.limsup_check(f, spec, r_grid=(0.9,), settings=settings)
print(json.dumps(tracer.layers()))
tracer.spans.clear()
ps.refine_until(lambda z: abs(z) ** 3, ps.grid_family(ps.Domain.DISK, 8, 16))
print(json.dumps(tracer.layers()))
"""


def test_bench_tracer_records_every_norm_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(BENCH)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    layers, limsup, refine = (json.loads(line) for line in proc.stdout.splitlines())
    for layer in ("norms.density", "quadrature.grid", "norms.space_norm"):
        assert layers.get(layer, {}).get("calls", 0) >= 1, (layer, sorted(layers))
    # each part of the limsup check is one weighted_p_integral family: its
    # right-hand side and its dilated part at r = 0.9
    assert limsup["experiments"]["calls"] == 1
    assert limsup.get("norms.weighted_p_integral", {}).get("calls") == 2, sorted(limsup)
    # a refined norm builds its two levels' grids and evaluates their density
    assert layers["quadrature.grid"]["builds"] >= 2
    assert layers["norms.density"]["nodes"] > 0
    # the tracer reads .level and .converged off the refinement record
    assert refine["quadrature.refine"]["calls"] == 1
    assert refine["quadrature.refine"]["levels"] >= 1
    # and each level's integral is a quadrature.integrate over the grid's nodes
    assert refine.get("quadrature.integrate", {}).get("calls", 0) >= 1, sorted(refine)
    assert refine["quadrature.integrate"]["nodes"] > 0
