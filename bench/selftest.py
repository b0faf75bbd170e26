"""Smoke self-test of the benchmark (about a minute).

    python3 bench/selftest.py

Runs every workload at a tiny size with ``--trace 0`` and ``--trace 1`` and
asserts that the last line of output names every metric of
``BENCHMARK.json`` with its unit; then checks that a copy holding only
``BENCHMARK.json`` and ``bench/`` exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, wanted, label):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    assert got == want, f"{label}: metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    # matrix is not in BENCHMARK.json (see NOTES.md) but stays runnable
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads + [w for w in ("matrix",) if w not in workloads]:
        for trace, wanted in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--tiny")
            check_result(proc, wanted, f"{workload} --trace {trace}")
            print(f"ok: {workload} --trace {trace}", flush=True)

    bare = os.path.join(BENCH_DIR, ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, "--workload", "matrix", "--seed", "1", "--seconds", "1")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok: a tree without src/ exits with status", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
