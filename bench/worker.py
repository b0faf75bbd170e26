"""One benchmark process: set up a workload, print ``READY``, run it, and print
``RESULT <json>`` as the last line.

Modes: ``setup`` stops after ``READY``; ``measure`` runs passes until
``--seconds`` have elapsed (at least one whole pass) and stops at the next op
boundary; ``pass`` runs exactly one pass, traced when ``--trace 1``.

The worker sets no allocator or thread-count variables and allocates nothing
large before the timed ops, so polyspace meets the allocator state a fresh
``python`` gives it.
"""

import argparse
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def _usage(who):
    ru = resource.getrusage(who)
    return {"minflt": ru.ru_minflt, "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "maxrss_kb": ru.ru_maxrss}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "pass"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    w = WORKLOADS[args.workload](args.seed, args.tiny)
    w.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        w.finish()
        return
    # the CLI workload's program runs in child processes
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    tracer = None
    if args.trace:
        if args.workload == "cli":
            w.trace = True
        else:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()

    samples = {}
    attempted = failed = 0
    errs = []
    unresolved = [0, 0]
    clock = time.perf_counter
    before = _usage(who)
    start = clock()
    rounds = 0
    done = False
    while not done:
        for op in w.round_order(rounds):
            if rounds and clock() - start >= args.seconds:
                done = True
                break
            t0 = clock()
            try:
                out = w.run(op)
            except Exception:
                out = None
                traceback.print_exc()
            dt = clock() - t0
            attempted += 1
            samples.setdefault(str(op), []).append(dt)
            ok = False
            if out is not None:
                try:
                    ok, op_errs, unres = w.check(op, out)
                except Exception:
                    traceback.print_exc()
                    ok, op_errs, unres = False, [], None
                errs += op_errs
                if unres is not None:
                    unresolved[0] += int(unres)
                    unresolved[1] += 1
            if not ok:
                failed += 1
                sys.stderr.write(f"{args.workload}: op {op} failed its check\n")
        else:
            rounds += 1
            done = done or args.mode == "pass" or clock() - start >= args.seconds
    after = _usage(who)
    w.finish()

    result = {
        "samples": samples,
        "batch": [str(op) for op in w.batch],
        "tail_pct": w.tail_pct,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "max_rel_err": max(errs) if errs else None,
        "closed_form_checks": len(errs),
        "unresolved": unresolved,
        "usage": {k: after[k] - before[k] for k in ("minflt", "user_s", "sys_s")},
        "maxrss_kb": after["maxrss_kb"],
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
    elif args.trace:
        result["layers"] = w.layers
        result["import_s"] = w.import_s
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
