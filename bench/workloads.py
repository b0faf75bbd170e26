"""The three benchmark workloads.

Each workload reads its fixed input pool and the seed commit's outputs from
``reference/<name>.json`` (written by ``make_reference.py``), picks its inputs
from the pool with ``random.Random(seed)``, and hands polyspace only those
inputs.  ``run(op)`` is the timed call; ``check(op, out)`` compares its output
with the reference and with ``oracle`` after the clock has stopped.
"""

import json
import math
import os
import random
import subprocess
import sys

import oracle
from tracer import merge_layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# Tolerances, relative.  Refined integrals converge to rel_tol = 1e-9, so
# 1e-8 leaves room for a change of summation order.  Fixed-grid and
# unconverged values carry quadrature error: the AngularPoly disk cells are
# off by up to 4e-6 on the default grid, so 1e-5 admits a quadrature fix
# while still catching a wrong formula.
TOL_CONVERGED = 1e-8
TOL_QUADRATURE = 1e-5
TOL_CLOSED_FORM = 1e-10
ATOL = 1e-13

# Pool members a run draws: per ``refine`` slot and per ``cli`` kind.
REFINE_PER_SLOT = 3
CLI_PER_KIND = 2


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL


def coeff_dict(terms):
    return {(k, j): complex(re, im) for k, j, re, im in terms}


def write_function_file(fn, path):
    """Write ``fn`` in the CLI's text format: ``q <int>``, then ``k j re im``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"q {fn['q']}\n")
        for k, j, re, im in fn["terms"]:
            fh.write(f"{k} {j} {re!r} {im!r}\n")


def build_function(ps, fn):
    return ps.from_monomials(coeff_dict(fn["terms"]), q=fn["q"])


def build_spec(ps, spec):
    w = spec["weight"]
    if w["type"] == "uniform":
        weight = ps.Uniform()
    elif w["type"] == "product-powerlaw":
        weight = ps.Product(radial=ps.PowerLaw(gamma=w["gamma"]), angular=ps.Uniform())
    elif w["type"] == "angularpoly":
        weight = ps.AngularPoly(alpha=w["alpha"], theta_max=w["theta_max"])
    else:
        raise ValueError(f"unknown weight {w!r}")
    return ps.SpaceSpec(domain=ps.Domain(spec["domain"]), kind=ps.SpaceKind(spec["kind"]),
                        p=spec["p"], weight=weight,
                        alpha=spec.get("alpha"), beta=spec.get("beta"))


def import_polyspace():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import polyspace
    return polyspace


class Workload:
    """``ops`` lists the op ids of one pass; ``batch`` names ops left out of
    the per-op percentiles."""

    batch = ()
    tail_pct = 90

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(seed)

    def round_order(self, rnd):
        order = list(self.ops)
        random.Random(f"{self.seed}:{rnd}").shuffle(order)
        return order

    def finish(self):
        pass


class Matrix(Workload):
    """The 252-cell ``default_matrix()``, one cell per op through
    ``run_theorem_suite``; the seed sets the order of the cells."""

    tail_pct = 95

    def round_order(self, rnd):
        # The first pass runs the cells in the matrix's own order, as a call of
        # run_theorem_suite() does: the heap layout that pass leaves sets the
        # page-fault rate of every later pass, so a seeded first pass would
        # make the fault rate, and the times, depend on the seed.
        return list(self.ops) if rnd == 0 else super().round_order(rnd)

    def setup(self):
        self.ps = import_polyspace()
        self.ref = load_reference("matrix")
        self.cells = self.ps.default_matrix()
        self.ops = list(range(len(self.cells)))
        self.functions = {label: coeff_dict(terms)
                          for label, terms in self.ref["functions"].items()}
        if self.tiny:
            closed = next(i for i, c in enumerate(self.ref["cells"])
                          if c["cell_id"].startswith("disk-dirichlet-p2-uniform"))
            self.ops = [closed] + self.rng.sample(self.ops, 7)

    def run(self, op):
        return self.ps.run_theorem_suite(cells=[self.cells[op]])

    def check(self, op, out):
        ref = self.ref["cells"][op]
        cell = out.cells[0]
        rep = cell.report
        ok = (cell.cell_id == ref["cell_id"] and rep.verdict == ref["verdict"]
              and close(rep.ref_norm, ref["ref_norm"], TOL_QUADRATURE))
        errs = []
        spec = rep.spec
        if (spec.domain.value == "disk" and spec.p == 2
                and spec.weight.describe() == "uniform"):
            coeffs = self.functions[rep.function_label]
            kind = spec.kind.value
            pairs = [(rep.ref_norm, oracle.disk_uniform_p2(coeffs, kind)[0])]
            for row in rep.rows:
                full, semi = oracle.disk_uniform_p2(
                    oracle.dilation_difference(coeffs, row.r), kind)
                pairs += [(row.err_fullnorm, full), (row.err_seminorm, semi)]
            errs = [oracle.rel_err(v, e) for v, e in pairs]
            ok = ok and max(errs) <= TOL_CLOSED_FORM
        return ok, errs, None


class Refine(Workload):
    """Refined ``space_norm`` and ``limsup_check`` calls on endpoint-singular
    and angular specs: seeded pool draws plus fixed closed-form monomials."""

    tail_pct = 90

    def setup(self):
        ps = self.ps = import_polyspace()
        self.ref = load_reference("refine")
        self.settings = ps.QuadSettings(max_level=self.ref["max_level"])
        self.cases = {}
        for s, slot in enumerate(self.ref["slots"]):
            for v in self.rng.sample(range(len(slot["variants"])), REFINE_PER_SLOT):
                var = slot["variants"][v]
                case = (build_function(ps, var["function"]), build_spec(ps, var["spec"]), var)
                self.cases[f"norm:{s}:{v}"] = case
                if slot["limsup"]:
                    self.cases[f"limsup:{s}:{v}"] = case
        for c, ctl in enumerate(self.ref["controls"]):
            k, j, re, im = ctl["monomial"]
            f = ps.from_monomials({(k, j): complex(re, im)}, q=k + 1)
            self.cases[f"control:{c}"] = (f, build_spec(ps, ctl["spec"]), ctl)
        self.ops = sorted(self.cases)
        if self.tiny:
            self.ops = [op for op in self.ops if op.startswith("control:")][:2]

    def run(self, op):
        f, spec, _ = self.cases[op]
        if op.startswith("limsup:"):
            return self.ps.limsup_check(f, spec, r_grid=self.ref["limsup_r_grid"],
                                        settings=self.settings)
        return self.ps.space_norm(f, spec, self.settings)

    def check(self, op, out):
        _, _, ref = self.cases[op]
        if op.startswith("limsup:"):
            want = ref["limsup"]
            got = [out.rhs_dz, out.rhs_dzbar] + [r.lhs_dz for r in out.rows] \
                + [r.lhs_dzbar for r in out.rows]
            exp = [want["rhs_dz"], want["rhs_dzbar"]] + want["lhs_dz"] + want["lhs_dzbar"]
            ok = out.certified == want["certified"] and all(
                close(a, b, TOL_QUADRATURE) for a, b in zip(got, exp))
            return ok, [], None
        want = ref["norm"]
        tol = TOL_CONVERGED if want["converged"] else TOL_QUADRATURE
        ok = (close(out.full_norm, want["full_norm"], tol)
              and close(out.seminorm, want["seminorm"], tol)
              and (out.flags.converged or not want["converged"]))
        errs = []
        if op.startswith("control:"):
            k, j, re, im = ref["monomial"]
            exact = oracle.monomial_norm(ref["spec"]["family"], ref["spec"]["params"],
                                         ref["spec"]["p"], k, j, complex(re, im))
            errs = [oracle.rel_err(out.full_norm, exact)]
            ok = ok and errs[0] <= TOL_QUADRATURE
        return ok, errs, not out.flags.converged


CLI_ENTRY = "import sys; from polyspace.cli import main; sys.exit(main())"


class Cli(Workload):
    """Cold ``polyspace`` processes, one at a time; one ``suite`` per pass."""

    batch = ("suite",)
    tail_pct = 80

    def setup(self):
        self.ref = load_reference("cli")
        self.work = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.trace = False
        self.layers = {}
        self.import_s = 0.0
        self.cases = {}
        for kind, variants in self.ref["kinds"].items():
            picks = self.rng.sample(range(len(variants)), CLI_PER_KIND)
            for v in picks:
                self.cases[f"{kind}:{v}"] = variants[v]
        for c, ctl in enumerate(self.ref["controls"]):
            self.cases[f"control:{c}"] = ctl
        self.cases["suite"] = self.ref["suite"]
        for op, case in self.cases.items():
            if "function" in case:
                case["path"] = os.path.join(self.work, op.replace(":", "-") + ".txt")
                write_function_file(case["function"], case["path"])
        self.ops = sorted(self.cases)
        if self.tiny:
            self.ops = ["suite", "control:0", "control:1"]
        # set-up ends when a cold interpreter has imported the CLI
        subprocess.run([sys.executable, "-c", "import polyspace.cli"], env=self.env,
                       cwd=ROOT, check=True, timeout=60)

    def run(self, op):
        case = self.cases[op]
        args = [a if a != "{function}" else case["path"] for a in case["args"]]
        if self.trace:
            out_path = os.path.join(self.work, "trace.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_entry.py"), out_path, *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if self.trace:
            with open(out_path, encoding="utf-8") as fh:
                record = json.load(fh)
            self.import_s += record["import_s"]
            merge_layers(self.layers, record["layers"])
        return proc

    def check(self, op, out):
        case = self.cases[op]
        if out.returncode != case["exit"]:
            sys.stderr.write(f"{op}: exit {out.returncode}: {out.stderr}\n")
            return False, [], None
        rtol = TOL_QUADRATURE if op == "suite" else TOL_CONVERGED
        ok = csv_close(out.stdout, case["stdout"], rtol)
        errs = []
        if "closed_form" in case:
            rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
            coeffs = coeff_dict(case["function"]["terms"])
            for row in rows:
                errs += closed_form_errors(case["closed_form"], row, coeffs)
            ok = ok and bool(errs) and max(errs) <= TOL_CLOSED_FORM
        return ok, errs, None

    def finish(self):
        for name in os.listdir(self.work):
            os.remove(os.path.join(self.work, name))
        os.rmdir(self.work)


def closed_form_errors(what, row, coeffs):
    """Relative errors of one CSV row of a closed-form control invocation."""
    if what == "norm":               # full_norm, seminorm, point_term
        full, semi = oracle.disk_uniform_p2(coeffs, "dirichlet")
        return [oracle.rel_err(float(row[0]), full), oracle.rel_err(float(row[1]), semi)]
    if what == "converge":           # r, err_seminorm, err_fullnorm
        r = float(row[0])
        full, semi = oracle.disk_uniform_p2(oracle.dilation_difference(coeffs, r), "besov")
        return [oracle.rel_err(float(row[1]), semi), oracle.rel_err(float(row[2]), full)]
    raise ValueError(what)


def _field_close(a, b, rtol):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return close(x, y, rtol)


def csv_close(got, want, rtol):
    got_rows = [line.split(",") for line in got.strip().splitlines()]
    want_rows = [line.split(",") for line in want.strip().splitlines()]
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        return False
    return all(len(g) == len(w) and all(_field_close(a, b, rtol) for a, b in zip(g, w))
               for g, w in zip(got_rows[1:], want_rows[1:]))


WORKLOADS = {"matrix": Matrix, "refine": Refine, "cli": Cli}
