"""polyspace benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload {matrix,refine,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in fresh ``python``
processes (``worker.py``), never in this one.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of nine
fresh set-ups (start ``python``, import, build inputs), four before and four
after the one that goes on to time ops for ``S`` seconds.  ``wall_s`` and
``op_p50_s`` are the sum and the median of each distinct op's fastest run in
those ``S`` seconds, which a slow spell of a shared host moves less than it
moves the raw samples; ``op_tail_s`` is a fixed percentile of all the op
runs, first pass and slow spells included.  ``--trace 1`` runs one untraced
pass and one traced pass, each in a fresh process, and prints the per-layer
metrics of the traced pass with the tracing overhead; a pass is a fixed
amount of work, so its counts repeat exactly for a seed.

The last line of stdout is the result object; a summary line and an
environment line come before it.  Without ``src/polyspace`` the run exits
with status 2 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUPS_BEFORE = SETUPS_AFTER = 4
DEADLINE_S = 170.0
ERR_FLOOR = 1e-17

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "correct_digits": "digits"}


class RunError(Exception):
    pass


def environment():
    """Called after the workers have exited, so importing numpy here cannot
    change what they measured."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError):
        blas = "unknown"
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.strip(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in names or k.startswith("MALLOC_")},
    }


def spawn(args, mode, deadline, trace=0):
    """Run one worker; return ``(seconds from spawn to READY, RESULT or None)``."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"worker {mode} exited with status {code}")
    lines = rest.strip().splitlines()
    if mode == "setup":
        return setup_s, None
    if not lines or not lines[-1].startswith("RESULT "):
        raise RunError(f"worker {mode} printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pass_wall(res):
    """Seconds for one warm pass: the sum over its ops of each op's fastest
    time.  The fastest of a few samples drops both first-pass work (grid
    builds) and slow spells of the shared host."""
    return math.fsum(min(ts) for ts in res["samples"].values())


def op_best_times(res):
    """Each op's fastest time, batch ops left out."""
    return [min(ts) for op, ts in res["samples"].items() if op not in res["batch"]]


def op_times(res):
    return [t for op, ts in res["samples"].items() if op not in res["batch"] for t in ts]


def correct_digits(res):
    err = res["max_rel_err"]
    return -math.log10(max(err, ERR_FLOOR)) if err is not None else 0.0


def end_to_end(args, deadline):
    setups = [spawn(args, "setup", deadline)[0] for _ in range(SETUPS_BEFORE)]
    setup_s, res = spawn(args, "measure", deadline)
    setups.append(setup_s)
    setups += [spawn(args, "setup", deadline)[0] for _ in range(SETUPS_AFTER)]
    pct = res["tail_pct"]
    samples = sorted(op_times(res))
    tail = percentile(samples, pct)
    beyond = sum(1 for t in samples if t > tail)
    bests = op_best_times(res)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_wall(res),
        "op_p50_s": statistics.median(bests),
        "op_tail_s": tail,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "correct_digits": correct_digits(res),
    }
    unres, refined = res["unresolved"]
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": res["rounds"],
        "ops": len(bests), "samples": len(samples), "op_tail_pct": pct,
        "samples_beyond_tail": beyond, "sample_p50_s": statistics.median(samples),
        "setups_s": setups,
        "failed_frac": res["failed"] / res["attempted"],
        "unresolved_frac": unres / refined if refined else None,
        "refined_norms": refined,
        "max_rel_err": res["max_rel_err"], "closed_form_checks": res["closed_form_checks"],
        "suite_s": res["samples"].get("suite", [None])[0],
        "process": res["usage"],
    }
    units = END_TO_END_UNITS
    return res, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, summary


# (metric, unit, layer, key); key "self_s" is a layer's own time, "total_s"
# includes the layers it calls.
PER_LAYER = [
    ("polyfun.evaluate.calls", "count", "polyfun.evaluate", "calls"),
    ("polyfun.evaluate.nodes", "count", "polyfun.evaluate", "nodes"),
    ("polyfun.evaluate.terms", "count", "polyfun.evaluate", "terms"),
    ("polyfun.evaluate.self_s", "s", "polyfun.evaluate", "self_s"),
    ("polyfun.calculus.calls", "count", "polyfun.calculus", "calls"),
    ("polyfun.calculus.self_s", "s", "polyfun.calculus", "self_s"),
    ("quadrature.grid.calls", "count", "quadrature.grid", "calls"),
    ("quadrature.grid.builds", "count", "quadrature.grid", "builds"),
    ("quadrature.grid.nodes", "count", "quadrature.grid", "nodes"),
    ("quadrature.grid.self_s", "s", "quadrature.grid", "self_s"),
    ("quadrature.integrate.calls", "count", "quadrature.integrate", "calls"),
    ("quadrature.integrate.nodes", "count", "quadrature.integrate", "nodes"),
    ("quadrature.integrate.self_s", "s", "quadrature.integrate", "self_s"),
    ("quadrature.refine.calls", "count", "quadrature.refine", "calls"),
    ("quadrature.refine.levels", "count", "quadrature.refine", "levels"),
    ("quadrature.refine.unconverged", "count", "quadrature.refine", "unconverged"),
    ("quadrature.refine.self_s", "s", "quadrature.refine", "self_s"),
    ("quadrature.mc_check.calls", "count", "quadrature.mc_check", "calls"),
    ("quadrature.mc_check.self_s", "s", "quadrature.mc_check", "self_s"),
    ("norms.density.calls", "count", "norms.density", "calls"),
    ("norms.density.nodes", "count", "norms.density", "nodes"),
    ("norms.density.self_s", "s", "norms.density", "self_s"),
    ("norms.space_norm.calls", "count", "norms.space_norm", "calls"),
    ("norms.space_norm.self_s", "s", "norms.space_norm", "self_s"),
    ("norms.weighted_p_integral.calls", "count", "norms.weighted_p_integral", "calls"),
    ("norms.weighted_p_integral.self_s", "s", "norms.weighted_p_integral", "self_s"),
    ("norms.spec_init.calls", "count", "norms.spec_init", "calls"),
    ("norms.spec_init.self_s", "s", "norms.spec_init", "self_s"),
    ("weights.eval_weight.calls", "count", "weights.eval_weight", "calls"),
    ("weights.eval_weight.self_s", "s", "weights.eval_weight", "self_s"),
    ("weights.check_condition.calls", "count", "weights.check_condition", "calls"),
    ("weights.check_condition.self_s", "s", "weights.check_condition", "self_s"),
    ("experiments.calls", "count", "experiments", "calls"),
    ("experiments.self_s", "s", "experiments", "self_s"),
    ("cli.parse_args_s", "s", "cli.parse_args", "total_s"),
    ("cli.load_function_s", "s", "cli.load_function", "total_s"),
    ("cli.self_s", "s", "cli", "self_s"),
]


def per_layer(args, deadline):
    _, plain = spawn(args, "pass", deadline)
    _, traced = spawn(args, "pass", deadline, trace=1)
    layers = traced["layers"]
    metrics = {name: {"value": layers.get(layer, {}).get(key, 0), "unit": unit}
               for name, unit, layer, key in PER_LAYER}
    cli_invocations = traced["attempted"] if args.workload == "cli" else 0
    self_total = math.fsum(agg["self_s"] for agg in layers.values())
    traced_wall, plain_wall = pass_wall(traced), pass_wall(plain)
    extra = {
        "cli.invocations": (cli_invocations, "count"),
        "cli.import_s": (traced.get("import_s", 0.0), "s"),
        "process.minor_faults": (plain["usage"]["minflt"], "count"),
        "process.user_s": (plain["usage"]["user_s"], "s"),
        "process.sys_s": (plain["usage"]["sys_s"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.coverage": (self_total / math.fsum(t for ts in traced["samples"].values()
                                                  for t in ts), "frac"),
    }
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    return (plain, traced), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["matrix", "refine", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few ops per workload, for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "polyspace", "__init__.py")):
        print("error: src/polyspace not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            results, metrics = per_layer(args, deadline)
            print("summary: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                            "traced_ops": results[1]["attempted"]}))
        else:
            res, metrics, summary = end_to_end(args, deadline)
            results = (res,)
            print("summary: " + json.dumps(summary))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(environment()))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
