"""Digests of the program's outputs, to show that a change leaves them bit for bit.

    python tests/output_digest.py                # this tree
    python tests/output_digest.py --against REV  # this tree and the commit REV

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
messages on these inputs.  With ``--against REV`` it exports ``REV`` with
``git archive`` into a temporary directory, runs this script there on that
tree, prints both trees' digests, and exits 1 when any line differs.  It
reads its inputs from each tree's ``bench/reference/`` and the helpers of its
``bench/workloads.py``, leaves ``.git`` as it was and writes nothing outside
a temporary directory; pytest does not collect this file.
"""

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
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


def digests():
    """The three digest lines of this tree."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    suite = _cli(["suite"], env)
    lines = [f"suite   exit {suite.returncode}       {_digest(suite.stdout)}"]
    n, text = refine_outputs()
    lines.append(f"refine  {n} outputs x 2  {_digest(text)}")
    n, text = cli_outputs(env)
    lines.append(f"cli     {n} invocations  {_digest(text)}")
    return lines


def digests_at(rev):
    """The three digest lines of commit ``rev``, computed by this script in a
    ``git archive`` export of it."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="digest-rev-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        script = os.path.join(tmp, "tests", "output_digest.py")
        shutil.copyfile(os.path.abspath(__file__), script)
        proc = subprocess.run([sys.executable, script], cwd=tmp, capture_output=True,
                              text=True, timeout=1800)
    if proc.returncode:
        sys.exit(f"digests of {rev} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description="Digests of the program's outputs.")
    ap.add_argument("--against", metavar="REV",
                    help="also digest commit REV and exit 1 when any digest differs")
    args = ap.parse_args(argv)
    here = digests()
    if args.against is None:
        print("\n".join(here))
        return 0
    there = digests_at(args.against)
    print("this tree\n" + "\n".join(here) + f"\n{args.against}\n" + "\n".join(there))
    differ = [line.split()[0] for line, other in zip(here, there) if line != other]
    if len(here) != len(there):
        differ.append("line count")
    print(f"differ: {', '.join(differ)}" if differ else "identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
