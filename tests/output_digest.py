"""Digests of the program's outputs, to show that a change leaves them bit for bit.

    python tests/output_digest.py

Prints one sha256 prefix (16 hex digits) for each of three outputs:

* ``suite`` — the stdout of a default ``polyspace suite``, with its exit code
  printed beside the digest;
* ``refine`` — the reprs of every output of the benchmark's ``refine`` pool
  (each variant's norm, each limsup-slot variant's ``limsup_check``, and the
  controls) at the pool's ``QuadSettings(max_level=...)``, computed once on
  cold rule caches and again on warm ones in the same process;
* ``cli`` — the exit code, stdout and stderr of every ``cli`` reference
  invocation (each kind's variants, the controls and the suite), with the
  temporary directory of the function files replaced by ``{tmp}``.

Two trees whose three lines agree produce the same floats, flags and
messages on these inputs.  It reads its inputs from ``bench/reference/`` and
the helpers of ``bench/workloads.py`` and writes nothing outside a temporary
directory; pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import workloads  # noqa: E402


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(args, env):
    return subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def refine_outputs():
    """Reprs of the ``refine`` pool's outputs, on cold and then warm caches."""
    ps = workloads.import_polyspace()
    ref = workloads.load_reference("refine")
    settings = ps.QuadSettings(max_level=ref["max_level"])
    cases = []
    for slot in ref["slots"]:
        for var in slot["variants"]:
            f = workloads.build_function(ps, var["function"])
            spec = workloads.build_spec(ps, var["spec"])
            cases.append((f, spec, False))
            if slot["limsup"]:
                cases.append((f, spec, True))
    for ctl in ref["controls"]:
        k, j, re, im = ctl["monomial"]
        f = ps.from_monomials({(k, j): complex(re, im)}, q=k + 1)
        cases.append((f, workloads.build_spec(ps, ctl["spec"]), False))
    lines = []
    for _ in ("cold", "warm"):
        for f, spec, limsup in cases:
            if limsup:
                out = ps.limsup_check(f, spec, r_grid=ref["limsup_r_grid"], settings=settings)
            else:
                out = ps.space_norm(f, spec, settings)
            lines.append(repr(out))
    return len(cases), "\n".join(lines)


def cli_outputs(env):
    """Exit code, stdout and stderr of every ``cli`` reference invocation."""
    ref = workloads.load_reference("cli")
    cases = [case for variants in ref["kinds"].values() for case in variants]
    cases += ref["controls"] + [ref["suite"]]
    lines = []
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        path = os.path.join(tmp, "function.txt")
        for case in cases:
            if "function" in case:
                workloads.write_function_file(case["function"], path)
            proc = _cli([path if a == "{function}" else a for a in case["args"]], env)
            lines.append(f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}".replace(tmp, "{tmp}"))
    return len(cases), "\n".join(lines)


def main():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    suite = _cli(["suite"], env)
    print(f"suite   exit {suite.returncode}       {_digest(suite.stdout)}")
    n, text = refine_outputs()
    print(f"refine  {n} outputs x 2  {_digest(text)}")
    n, text = cli_outputs(env)
    print(f"cli     {n} invocations  {_digest(text)}")


if __name__ == "__main__":
    main()
