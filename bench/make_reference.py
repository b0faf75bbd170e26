"""Write ``reference/{matrix,refine,cli}.json``: each workload's input pool and
the outputs polyspace gives for it.

The pools come from ``random.Random("<POOL_SEED>:<workload>")``; a run draws its
inputs from them with its own seed.  Run this only to re-baseline on purpose,
from the repository root: ``python3 bench/make_reference.py [matrix refine
cli]``.  It takes about two minutes.
"""

import functools
import json
import math
import os
import random
import shutil
import subprocess
import sys

from workloads import (BENCH_DIR, CLI_ENTRY, REFERENCE_DIR, ROOT, SRC, build_function,
                       build_spec, import_polyspace, write_function_file)

POOL_SEED = 2303
MAX_LEVEL = 1
LIMSUP_R_GRID = [0.9]
VARIANTS = 8

# The paper's three test functions, written out here rather than taken from
# polyspace so the closed-form checks do not share its code.
MATRIX_FUNCTIONS = {
    "analytic": [[0, j, 1.0 / math.factorial(j), 0.0] for j in range(31)],
    "pure-zbar": [[1, 0, 1.0, 0.0], [2, 0, 0.5, 0.0]],
    "mixed": [[0, 2, 1.0, 0.0], [1, 1, 1.0, 0.0], [2, 2, 0.25, 0.0]],
}

# (family, q, degree, with limsup_check, spec parameters).  Every family gets
# one small and one large function, q = 1..4 and degrees up to 30 all occur,
# and the exponents are fractional so that no slot converges at level 1: the
# seed then changes coefficients but hardly the work of a pass.
REFINE_SLOTS = [
    ("besov-frac", 1, 30, True, {"p": 2.5}),
    ("besov-frac", 3, 20, False, {"p": 2.25}),
    ("product-powerlaw", 2, 25, True, {"p": 2.0, "gamma": 0.5}),
    ("product-powerlaw", 4, 15, False, {"p": 3.0, "gamma": 0.25}),
    ("hp-frac-alpha", 4, 10, True, {"p": 2.0, "alpha": 0.5, "beta": 1.0}),
    ("hp-frac-alpha", 2, 30, False, {"p": 2.0, "alpha": 0.25, "beta": 0.5}),
    ("disk-angular", 3, 20, True, {"p": 3.0}),
    ("disk-angular", 4, 30, False, {"p": 3.0}),
]

# Closed-form monomials c conj(z)^k z^j, one per family.
REFINE_CONTROLS = [
    ("besov-frac", {"p": 2.5}, [1, 2, 1.5, 0.0]),
    ("product-powerlaw", {"p": 2.0, "gamma": 0.5}, [2, 1, 1.0, 0.0]),
    ("hp-frac-alpha", {"p": 2.0, "alpha": 0.5, "beta": 1.0}, [1, 1, 1.0, 0.0]),
    ("disk-angular", {"p": 3.0}, [1, 2, 1.0, 0.0]),
]


def random_function(rng, q, degree):
    """Dense polyanalytic polynomial with coefficients ``N(0,1)(1+i) / j!``."""
    terms = []
    for k in range(q):
        for j in range(degree + 1):
            scale = 1.0 / math.factorial(j)
            terms.append([k, j, rng.gauss(0.0, 1.0) * scale, rng.gauss(0.0, 1.0) * scale])
    return {"q": q, "terms": terms}


def refine_spec(family, p=None, gamma=None, alpha=None, beta=None):
    spec = {"family": family, "domain": "disk", "kind": "dirichlet", "params": {},
            "weight": {"type": "uniform"}}
    if family == "besov-frac":
        spec.update(kind="besov", p=p)
    elif family == "product-powerlaw":
        spec.update(p=p, weight={"type": "product-powerlaw", "gamma": gamma},
                    params={"gamma": gamma})
    elif family == "hp-frac-alpha":
        spec.update(domain="halfplane", p=p, alpha=alpha, beta=beta,
                    params={"alpha": alpha, "beta": beta})
    elif family == "disk-angular":
        spec.update(p=p, weight={"type": "angularpoly", "alpha": 1.0,
                                 "theta_max": 2.0 * math.pi})
    return spec


def norm_record(res):
    return {"full_norm": res.full_norm, "seminorm": res.seminorm,
            "converged": res.flags.converged, "level": res.flags.level,
            "rel_change": res.flags.rel_change}


def make_matrix(ps):
    funcs = dict(ps.standard_functions())
    for label, terms in MATRIX_FUNCTIONS.items():
        mine = ps.from_monomials({(k, j): complex(re, im) for k, j, re, im in terms},
                                 q=funcs[label].q)
        assert mine == funcs[label], label
    suite = ps.run_theorem_suite()
    cells = [{"cell_id": c.cell_id, "verdict": c.report.verdict,
              "ref_norm": c.report.ref_norm} for c in suite.cells]
    return {"functions": MATRIX_FUNCTIONS, "cells": cells}


def make_refine(ps, rng):
    settings = ps.QuadSettings(max_level=MAX_LEVEL)
    slots = []
    for family, q, degree, with_limsup, params in REFINE_SLOTS:
        variants = []
        for _ in range(VARIANTS):
            var = {"spec": refine_spec(family, **params),
                   "function": random_function(rng, q, degree)}
            f, spec = build_function(ps, var["function"]), build_spec(ps, var["spec"])
            var["norm"] = norm_record(ps.space_norm(f, spec, settings))
            if with_limsup:
                rep = ps.limsup_check(f, spec, r_grid=LIMSUP_R_GRID, settings=settings)
                var["limsup"] = {"rhs_dz": rep.rhs_dz, "rhs_dzbar": rep.rhs_dzbar,
                                 "lhs_dz": [r.lhs_dz for r in rep.rows],
                                 "lhs_dzbar": [r.lhs_dzbar for r in rep.rows],
                                 "certified": rep.certified}
            variants.append(var)
        slots.append({"family": family, "q": q, "degree": degree,
                      "limsup": with_limsup, "variants": variants})
    controls = []
    for family, params, mono in REFINE_CONTROLS:
        spec = refine_spec(family, **params)
        k, j, re, im = mono
        f = ps.from_monomials({(k, j): complex(re, im)}, q=k + 1)
        res = ps.space_norm(f, build_spec(ps, spec), settings)
        controls.append({"spec": spec, "monomial": mono, "norm": norm_record(res)})
    return {"max_level": MAX_LEVEL, "limsup_r_grid": LIMSUP_R_GRID,
            "slots": slots, "controls": controls}


def _cli_variant(rng, kind):
    fn = random_function(rng, rng.randint(1, 3), rng.randint(2, 8))
    space = ["--function", "{function}"]
    if kind == "norm-disk":
        args = ["norm", "--space", rng.choice(["bergman", "dirichlet", "besov"]),
                "--domain", "disk", "--p", rng.choice(["2", "3"]),
                "--weight", rng.choice(["uniform", "expabspow", "exprepow"])]
    elif kind == "norm-halfplane":
        args = ["norm", "--space", rng.choice(["bergman", "dirichlet"]),
                "--domain", "halfplane", "--p", "2", "--alpha", rng.choice(["0", "1", "2"]),
                "--beta", "1", "--weight", rng.choice(["uniform", "expabspow"])]
    elif kind == "converge":
        args = ["converge", "--space", rng.choice(["dirichlet", "besov"]),
                "--domain", "disk", "--p", "2",
                "--weight", rng.choice(["uniform", "expabspow", "exprepow"])]
    elif kind == "limsup-check":
        args = ["limsup-check", "--space", "dirichlet", "--p", "2"]
        args += rng.choice([["--domain", "disk"],
                            ["--domain", "halfplane", "--alpha", "0", "--beta", "1"]])
    elif kind == "approx":
        args = ["approx", "--space", "besov", "--domain", "disk", "--p", "2",
                "--r", rng.choice(["0.9", "0.99"]), "--m-grid", "2,5,10,20"]
    else:
        return {"args": ["check-weight"] + rng.choice([
            ["--weight", "expabs", "--k-max", "3"],
            ["--weight", "exprepow", "--k", "0"],
            ["--weight", "expabspow", "--weight-beta", "2", "--k", "0"],
            ["--weight", "angularpoly", "--k-max", "2"]])}
    return {"args": args + space, "function": fn}


CLI_KINDS = ["norm-disk", "norm-halfplane", "converge", "limsup-check", "approx",
             "check-weight"]


def _run_cli(case, work, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    args = list(case["args"])
    if "function" in case:
        path = os.path.join(work, name + ".txt")
        write_function_file(case["function"], path)
        args = [path if a == "{function}" else a for a in args]
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    case["exit"], case["stdout"] = proc.returncode, proc.stdout
    return case


def make_cli(rng):
    work = os.path.join(BENCH_DIR, ".work", "reference")
    os.makedirs(work, exist_ok=True)
    kinds = {}
    for kind in CLI_KINDS:
        variants = []
        while len(variants) < VARIANTS:
            case = _run_cli(_cli_variant(rng, kind), work, f"{kind}-{len(variants)}")
            if case["exit"] == 0:
                variants.append(case)
        kinds[kind] = variants
    control_fn = {"q": 3, "terms": [[0, 3, 0.5, 0.0], [1, 1, 1.0, 0.0],
                                    [2, 0, 0.25, -0.5]]}
    zbar_z = {"q": 2, "terms": [[1, 1, 1.0, 0.0]]}
    controls = [
        {"args": ["norm", "--space", "dirichlet", "--domain", "disk", "--p", "2",
                  "--function", "{function}"], "function": control_fn,
         "closed_form": "norm"},
        {"args": ["converge", "--space", "besov", "--domain", "disk", "--p", "2",
                  "--function", "{function}"], "function": zbar_z,
         "closed_form": "converge"},
    ]
    controls = [_run_cli(c, work, f"control-{i}") for i, c in enumerate(controls)]
    suite = _run_cli({"args": ["suite"]}, work, "suite")
    shutil.rmtree(work)
    return {"kinds": kinds, "controls": controls, "suite": suite}


def main():
    ps = import_polyspace()
    makers = {"matrix": lambda rng: make_matrix(ps),
              "refine": lambda rng: make_refine(ps, rng),
              "cli": make_cli}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in sys.argv[1:] or makers:
        make = functools.partial(makers[name], random.Random(f"{POOL_SEED}:{name}"))
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(make(), fh, indent=1)
            fh.write("\n")
        print(f"wrote reference/{name}.json", flush=True)


if __name__ == "__main__":
    main()
