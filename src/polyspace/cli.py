"""Command-line front end.

Subcommands: ``norm``, ``converge``, ``limsup-check``, ``approx``,
``check-weight``, ``suite``.  All output is CSV (header plus rows, floats with
17 significant digits); exit status is 0 on success, 1 on invalid input, 2 when
a verdict or certificate fails or rests on an unresolved integral.

The CLI parses syntax, builds the library's objects (:class:`QuadSettings`,
the weight, :class:`SpaceSpec`) and runs the command.  Range and finiteness
checks live in the library, whose ``ValueError`` messages start with the name of
the argument at fault; :func:`main` prints them as ``error: --<flag>: <message>``
through one name -> flag table per command family.

Function files are plain text: a ``q <int>`` header line, then one monomial per
line as ``k j re im`` (the coefficient of ``conj(z)^k z^j``), with ``#``
comments ignored.  Weight parameters are spelled ``--weight-beta``,
``--weight-n``, ``--weight-alpha``, ``--weight-gamma``, ``--weight-theta-max``
(``--alpha``/``--beta`` belong to the half-plane measure); ``check-weight``
takes no measure parameters, so the bare spellings work there too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys

import numpy as np

from . import experiments, polyfun, quadrature
from .domain import Domain
from .norms import QuadSettings, SpaceKind, SpaceSpec, space_norm
from .weights import (AngularPoly, ExpAbs, ExpAbsPow, ExpRePow, PowerLaw, Product,
                      Uniform, check_condition, find_min_k)

__all__ = ["UsageError", "parse_args", "load_function", "write_function",
           "emit_csv", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # "argument --flag: ..." -> "--flag: ...", like the library's errors
        raise UsageError(message.removeprefix("argument "))


# library argument -> the flag that sets it, per command family
_WEIGHT_FLAGS = {"beta": "--weight-beta", "n": "--weight-n",
                 "alpha": "--weight-alpha", "gamma": "--weight-gamma",
                 "theta_max": "--weight-theta-max"}
_RUN_FLAGS = {"n_r": "--quad-nr", "n_theta": "--quad-ntheta",
              "rel_tol": "--quad-rel-tol", "p": "--p", "alpha": "--alpha",
              "beta": "--beta", "quad_R": "--quad-R", "R": "--quad-R",
              "r_grid": "--r-grid", "threshold": "--threshold", "r": "--r",
              "m_grid": "--m-grid"}
_CHECK_WEIGHT_FLAGS = {"k": "--k", "k_max": "--k-max", "r0": "--r0",
                       "n_r": "--grid-nr", "n_z": "--grid-nz"}


@contextlib.contextmanager
def _naming(flags):
    """Re-raise a library ``ValueError``, whose message starts with the name of
    the argument at fault, as a :class:`UsageError` that names its flag."""
    try:
        yield
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise UsageError(f"{flags[name]}: {exc}" if name in flags else str(exc)) from None


def _list_of(caster):
    """argparse ``type=`` for a comma-separated list of ``caster`` values."""
    def parse(text):
        try:
            return tuple(caster(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects a comma-separated list, got {text!r}") from None
    return parse


_LIST_FLAGS = ("--r-grid", "--m-grid")


def _joined_list_values(argv):
    """``--m-grid -1,2`` -> ``--m-grid=-1,2``: argparse would read a list value
    that starts with ``-`` as an option, so it would never reach the library."""
    out = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _add_weight_args(parser, bare_spellings):
    parser.add_argument(
        "--weight",
        choices=["uniform", "expabspow", "exprepow", "expabs", "angularpoly",
                 "product"],
        default="uniform",
    )
    wb = ["--weight-beta"] + (["--beta"] if bare_spellings else [])
    wa = ["--weight-alpha"] + (["--alpha"] if bare_spellings else [])
    parser.add_argument(*wb, dest="weight_beta", type=float, default=None)
    parser.add_argument("--weight-n", "--n", dest="weight_n", type=int, default=2)
    parser.add_argument(*wa, dest="weight_alpha", type=float, default=None)
    parser.add_argument("--weight-gamma", "--gamma", dest="weight_gamma",
                        type=float, default=0.5)
    parser.add_argument("--weight-theta-max", "--theta-max",
                        dest="weight_theta_max", type=float, default=None)


def _add_quad_args(parser):
    parser.add_argument("--quad-nr", type=int, default=quadrature.DEFAULT_N_R)
    parser.add_argument("--quad-ntheta", type=int, default=quadrature.DEFAULT_N_THETA)
    parser.add_argument("--output", default=None)


def _build_parser():
    parser = _Parser(prog="polyspace")
    sub = parser.add_subparsers(dest="command", required=True)
    domains = [str(d) for d in Domain]
    r_grid = dict(type=_list_of(float), default=experiments.DEFAULT_R_GRID)

    for name in ("norm", "converge", "limsup-check", "approx"):
        p = sub.add_parser(name)
        p.add_argument("--space", choices=[str(k) for k in SpaceKind], required=True)
        p.add_argument("--domain", choices=domains, required=True)
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--function", required=True)
        _add_weight_args(p, bare_spellings=False)
        _add_quad_args(p)
        p.add_argument("--quad-R", dest="quad_R", type=float, default=None)
        p.add_argument("--quad-rel-tol", type=float, default=quadrature.DEFAULT_REL_TOL)
        p.add_argument("--no-refine", action="store_true")
        if name in ("converge", "limsup-check"):
            p.add_argument("--r-grid", **r_grid)
        if name == "converge":
            p.add_argument("--threshold", type=float, default=0.02)
        if name == "approx":
            p.add_argument("--r", type=float, required=True)
            p.add_argument("--m-grid", type=_list_of(int),
                           default=experiments.DEFAULT_M_GRID)

    p = sub.add_parser("check-weight")
    _add_weight_args(p, bare_spellings=True)
    k = p.add_mutually_exclusive_group(required=True)
    k.add_argument("--k", type=int)
    k.add_argument("--k-max", type=int)
    p.add_argument("--r0", type=float, default=0.5)
    p.add_argument("--grid-nr", type=int, default=64)
    p.add_argument("--grid-nz", type=int, default=4096)
    p.add_argument("--domain", choices=domains, default="disk")
    p.add_argument("--output", default=None)

    p = sub.add_parser("suite")
    p.add_argument("--r-grid", **r_grid)
    p.add_argument("--threshold", type=float, default=0.02)
    _add_quad_args(p)
    return parser


def _build_weight(args):
    tag, beta, alpha, n = args.weight, args.weight_beta, args.weight_alpha, args.weight_n
    theta_max = args.weight_theta_max
    if theta_max is None:
        theta_max = 2.0 * math.pi if args.domain is Domain.DISK else math.pi
    if tag == "product":
        # --weight-beta picks the ExpAbsPow radial profile, --weight-alpha the
        # AngularPoly angular factor
        radial = PowerLaw(gamma=args.weight_gamma) if beta is None else ExpAbsPow(beta, n)
        angular = Uniform() if alpha is None else AngularPoly(alpha, theta_max)
        return Product(radial=radial, angular=angular)
    if tag == "expabspow":
        return ExpAbsPow(beta=1.0 if beta is None else beta, n=n)
    if tag == "exprepow":
        return ExpRePow(beta=1.0 if beta is None else beta, n=n)
    if tag == "angularpoly":
        return AngularPoly(alpha=1.0 if alpha is None else alpha, theta_max=theta_max)
    return ExpAbs() if tag == "expabs" else Uniform()


def parse_args(argv=None):
    """Parse ``argv`` into an ``argparse.Namespace`` with the library objects
    attached: ``settings`` for every command but ``check-weight``, ``weight``
    for every command but ``suite``, ``spec`` and ``function_label`` for the
    commands that read a function file.  Bad input raises :class:`UsageError`
    naming the flag; :func:`main` maps that to exit status 1.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_joined_list_values(argv))
    if args.command == "suite":
        # the suite runs every cell on one fixed grid, so a run is a fixed
        # amount of work whatever the cells' convergence
        with _naming(_RUN_FLAGS):
            args.settings = QuadSettings(n_r=args.quad_nr, n_theta=args.quad_ntheta,
                                         refine=False)
        return args
    args.domain = Domain(args.domain)
    with _naming(_WEIGHT_FLAGS):
        args.weight = _build_weight(args)
    if args.command == "check-weight":
        return args

    halfplane = args.domain is Domain.HALFPLANE
    alpha = 0.0 if halfplane and args.alpha is None else args.alpha
    beta = 1.0 if halfplane and args.beta is None else args.beta
    with _naming(_RUN_FLAGS):
        args.settings = QuadSettings(n_r=args.quad_nr, n_theta=args.quad_ntheta,
                                     rel_tol=args.quad_rel_tol,
                                     refine=not args.no_refine)
        args.spec = SpaceSpec(domain=args.domain, kind=SpaceKind(args.space), p=args.p,
                              weight=args.weight, alpha=alpha, beta=beta,
                              quad_R=args.quad_R)
    if not os.path.exists(args.function):
        raise UsageError(f"--function: file not found: {args.function}")
    args.function_label = os.path.splitext(os.path.basename(args.function))[0]
    return args


def load_function(path):
    """Read a function file; every malformed line is reported by number.  The
    syntax is checked here, the order and the monomials by the library."""
    q = None
    entries, probes = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            tokens = line.split()
            if q is None:
                if len(tokens) != 2 or tokens[0] != "q":
                    raise UsageError(f"{where}: expected header 'q <int>', got {line!r}")
                try:
                    q = int(tokens[1])
                except ValueError:
                    raise UsageError(f"{where}: order {tokens[1]!r} is not an integer")
                probes.append((where, {}))
                continue
            if len(tokens) != 4:
                raise UsageError(f"{where}: expected 'k j re im', got {line!r}")
            try:
                k, j = int(tokens[0]), int(tokens[1])
                re, im = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise UsageError(f"{where}: non-numeric entry in {line!r}")
            if (k, j) in entries:
                raise UsageError(f"{where}: duplicate monomial ({k}, {j})")
            entries[(k, j)] = complex(re, im)
            probes.append((where, {(k, j): entries[(k, j)]}))
    if q is None:
        raise UsageError(f"{path}: missing 'q <int>' header line")
    try:
        return polyfun.from_monomials(entries, q)
    except ValueError:
        # name the first line that the library refuses on its own
        for where, entry in probes:
            try:
                polyfun.from_monomials(entry, q)
            except ValueError as exc:
                raise UsageError(f"{where}: {exc}") from None
        raise


def write_function(f, path):
    """Inverse of :func:`load_function`; round-trips coefficients exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"q {f.q}\n")
        for k, h in enumerate(f.components):
            for j, c in enumerate(h.coeffs):
                if c != 0:
                    fh.write(f"{k} {j} {c.real:.17g} {c.imag:.17g}\n")


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(header, rows, sink):
    sink.write(",".join(header) + "\n")
    for row in rows:
        sink.write(",".join(_fmt(v) for v in row) + "\n")


def _run(args):
    """Run the command and write its CSV only once it is complete, so a run
    that fails on its input leaves no ``--output`` file behind."""
    sink = io.StringIO()
    code = _dispatch(args, sink)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(sink.getvalue())
    else:
        sys.stdout.write(sink.getvalue())
    return code


def _dispatch(args, sink):
    if args.command == "check-weight":
        grid = dict(r0=args.r0, n_r=args.grid_nr, n_z=args.grid_nz, domain=args.domain)
        if args.k_max is not None:
            witness = find_min_k(args.weight, k_max=args.k_max, **grid)
        else:
            witness = check_condition(args.weight, args.k, **grid)
        header = ("k", "C", "r0", "grid_size", "attained_r",
                  "attained_z_re", "attained_z_im")
        if witness is None:
            emit_csv(header, [], sink)
            print("condition check failed: ratio diverges on the grid", file=sys.stderr)
            return 2
        emit_csv(header, [(witness.k, witness.C, witness.r0, witness.grid_size,
                           witness.attained_r, witness.attained_z.real,
                           witness.attained_z.imag)], sink)
        return 0

    if args.command == "suite":
        report = experiments.run_theorem_suite(
            r_grid=args.r_grid, threshold=args.threshold, settings=args.settings)
        # the half-plane measure at alpha = beta = 1, integrated over the
        # half-disk of radius R on the suite's grid, against its closed form
        R, settings = 8.0, args.settings
        quad = quadrature.integrate(lambda z: z.imag * np.exp(-np.abs(z) ** 2),
                                    quadrature.halfplane_grid(R, settings.n_r, settings.n_theta))
        exact = math.sqrt(math.pi) / 2.0 * math.erf(R) - R * math.exp(-R * R)
        if not abs(quad - exact) <= args.threshold * exact:
            print(f"half-plane quadrature self-check failed: quad={quad!r} "
                  f"exact={exact!r}", file=sys.stderr)
            return 2
        emit_csv(report.csv_header(), report.csv_rows(), sink)
        if not report.all_converged:
            print(f"{len(report.failures)} cell(s) not converged", file=sys.stderr)
            return 2
        return 0

    f = load_function(args.function)
    common = dict(settings=args.settings, function_label=args.function_label)
    if args.command == "norm":
        result = space_norm(f, args.spec, args.settings)
        emit_csv(("full_norm", "seminorm", "point_term"),
                 [(result.full_norm, result.seminorm, result.point_term)], sink)
        if not result.flags.converged:
            print(f"quadrature did not converge: {result.flags.describe()}",
                  file=sys.stderr)
        return 0
    if args.command == "converge":
        report = experiments.dilatation_convergence(
            f, args.spec, r_grid=args.r_grid, threshold=args.threshold, **common)
        ok = report.converged
    elif args.command == "limsup-check":
        report = experiments.limsup_check(f, args.spec, r_grid=args.r_grid, **common)
        ok = report.certified
    else:
        report = experiments.poly_approx(f, args.spec, args.r, m_grid=args.m_grid,
                                         **common)
        ok = report.converged
    emit_csv(report.csv_header(), report.csv_rows(), sink)
    if report.unresolved:
        print("no verdict: an integral behind it did not converge", file=sys.stderr)
    return 0 if ok else 2


def main(argv=None):
    try:
        args = parse_args(argv)
        flags = _CHECK_WEIGHT_FLAGS if args.command == "check-weight" else _RUN_FLAGS
        with _naming(flags):
            return _run(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
