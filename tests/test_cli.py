import gc
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest

from polyspace import Domain, SpaceKind, from_monomials, space_norm
from polyspace.cli import (
    UsageError,
    _fmt,
    load_function,
    main,
    parse_args,
    write_function,
)


def _function_file(tmp_path, text, name="f.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def zbar_z_file(tmp_path):
    # conj(z) * z
    return _function_file(tmp_path, "q 2\n1 1 1 0\n")


@pytest.fixture
def z_file(tmp_path):
    return _function_file(tmp_path, "q 1\n0 1 1 0\n")


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_norm_command(z_file):
    config = parse_args([
        "norm", "--space", "dirichlet", "--domain", "disk", "--p", "2",
        "--function", z_file,
    ])
    assert config.command == "norm"
    assert config.spec.domain is Domain.DISK
    assert config.spec.kind is SpaceKind.DIRICHLET
    assert config.spec.p == 2.0
    assert config.function_label == "f"
    assert config.settings.refine


def test_parse_halfplane_defaults(z_file):
    config = parse_args([
        "norm", "--space", "bergman", "--domain", "halfplane", "--p", "2",
        "--function", z_file,
    ])
    assert config.spec.alpha == 0.0
    assert config.spec.beta == 1.0


def test_parse_weight_flags(z_file):
    config = parse_args([
        "norm", "--space", "bergman", "--domain", "disk", "--p", "2",
        "--function", z_file, "--weight", "expabspow",
        "--weight-beta", "0.5", "--n", "3",
    ])
    assert config.spec.weight.beta == 0.5
    assert config.spec.weight.n == 3


def test_measure_flags_rejected_on_disk(z_file):
    with pytest.raises(UsageError, match="halfplane"):
        parse_args(["norm", "--space", "bergman", "--domain", "disk",
                    "--p", "2", "--alpha", "1.0", "--function", z_file])


def test_besov_small_p_is_refused(z_file, capsys):
    code = main(["norm", "--space", "besov", "--domain", "disk", "--p", "1.5",
                 "--function", z_file])
    assert code == 1
    assert "besov requires p >= 2" in capsys.readouterr().err


def test_beta_zero_needs_truncation_radius(z_file, capsys):
    code = main(["norm", "--space", "bergman", "--domain", "halfplane",
                 "--p", "2", "--beta", "0", "--function", z_file])
    assert code == 1
    assert "truncation radius" in capsys.readouterr().err


def test_missing_function_file(capsys):
    code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                 "--function", "/no/such/file.txt"])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_bad_r_grid_names_the_flag(z_file):
    base = ["converge", "--space", "dirichlet", "--domain", "disk", "--p", "2",
            "--function", z_file]
    with pytest.raises(UsageError, match="--r-grid"):
        parse_args(base + ["--r-grid", "0.5,oops"])


def test_theta_max_zero_is_not_replaced_by_the_default(z_file):
    with pytest.raises(UsageError, match="theta_max"):
        parse_args(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                    "--function", z_file, "--weight", "angularpoly",
                    "--weight-theta-max", "0"])


@pytest.mark.parametrize("argv, flag", [
    (["suite", "--quad-R", "4"], "--quad-R"),
    (["suite", "--no-refine"], "--no-refine"),
    (["suite", "--quad-rel-tol", "1e-6"], "--quad-rel-tol"),
    (["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
      "--function", "f.txt", "--seed", "1"], "--seed"),
])
def test_flags_that_a_command_ignores_are_refused(argv, flag):
    with pytest.raises(UsageError, match=flag):
        parse_args(argv)


def test_check_weight_needs_k_or_kmax():
    with pytest.raises(UsageError, match="--k"):
        parse_args(["check-weight", "--weight", "uniform"])


# ---------------------------------------------------------------------------
# function files


def test_load_function_with_comments(tmp_path):
    path = _function_file(tmp_path, """\
# a mixed function
q 3

1 1 1 0      # conj(z) z
2 0 0.5 -0.5
""")
    f = load_function(path)
    assert f.q == 3
    assert f(0.5 + 0.5j) == pytest.approx(
        from_monomials({(1, 1): 1.0, (2, 0): 0.5 - 0.5j}, q=3)(0.5 + 0.5j))


def test_load_function_empty_body_is_zero(tmp_path):
    f = load_function(_function_file(tmp_path, "q 2\n"))
    assert f.q == 2
    assert f(0.3 + 0.1j) == 0


@pytest.mark.parametrize("text,fragment", [
    ("1 1 1 0\n", "expected header"),
    ("q x\n", "not an integer"),
    ("q 0\n", "q must be >= 1"),
    ("q 2\n1 1 1\n", "expected 'k j re im'"),
    ("q 2\n1 1 a 0\n", "non-numeric"),
    ("q 2\n1 1 1 0\n1 1 2 0\n", "duplicate"),
    ("q 2\n-1 1 1 0\n", "negative"),
    ("q 2\n2 0 1 0\n", "exceeds declared order"),
    ("q 2\n1 1 inf 0\n", "coefficients must be finite"),
])
def test_load_function_reports_line_numbers(tmp_path, text, fragment):
    path = _function_file(tmp_path, text)
    with pytest.raises(UsageError) as err:
        load_function(path)
    assert fragment in str(err.value)
    assert path in str(err.value)


def test_load_function_missing_header(tmp_path):
    path = _function_file(tmp_path, "# only comments\n")
    with pytest.raises(UsageError, match="missing 'q <int>' header"):
        load_function(path)


def test_function_round_trip(tmp_path, corpus_functions):
    for label, f in corpus_functions:
        path = tmp_path / f"{label}.txt"
        write_function(f, str(path))
        assert load_function(str(path)) == f, label


# ---------------------------------------------------------------------------
# output formatting


def test_floats_carry_full_precision():
    assert _fmt(0.1) == "0.10000000000000001"
    assert _fmt(2) == "2"
    assert _fmt("cell") == "cell"


def test_output_file_is_deterministic(tmp_path, zbar_z_file):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["norm", "--space", "besov", "--domain", "disk", "--p", "2",
            "--function", zbar_z_file]
    assert main(argv + ["--output", out1]) == 0
    assert main(argv + ["--output", out2]) == 0
    a, b = open(out1, "rb").read(), open(out2, "rb").read()
    assert a == b
    assert a.startswith(b"full_norm,seminorm,point_term\n")


# ---------------------------------------------------------------------------
# end-to-end runs


def test_norm_output_value(tmp_path, capsys):
    one = _function_file(tmp_path, "q 1\n0 0 1 0\n")
    code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                 "--function", one])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "full_norm,seminorm,point_term"
    full, semi, point = map(float, lines[1].split(","))
    assert full == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert point == 0.0


def test_converge_exit_codes(zbar_z_file, capsys):
    argv = ["converge", "--space", "besov", "--domain", "disk", "--p", "2",
            "--function", zbar_z_file]
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "r,err_seminorm,err_fullnorm"
    assert len(rows) == 5
    # last row at r = 0.999 should match (1 - r^2) sqrt(pi)
    err = float(rows[-1].split(",")[2])
    assert err == pytest.approx((1 - 0.999**2) * math.sqrt(math.pi), rel=1e-8)

    assert main(argv + ["--threshold", "1e-12"]) == 2


def test_limsup_check_run(z_file, capsys):
    code = main(["limsup-check", "--space", "dirichlet", "--domain", "disk",
                 "--p", "2", "--function", z_file, "--r-grid", "0.5,0.9"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "r,lhs_dz,lhs_dzbar,rhs_dz,rhs_dzbar"
    lhs = float(rows[1].split(",")[1])
    assert lhs == pytest.approx(0.25 * math.pi, rel=1e-10)


def test_approx_run(tmp_path, capsys):
    f = from_monomials({(1, j): 1.0 / math.factorial(j) for j in range(31)}, q=2)
    path = str(tmp_path / "zbar_exp.txt")
    write_function(f, path)
    code = main(["approx", "--space", "besov", "--domain", "disk", "--p", "2",
                 "--function", path, "--r", "0.99", "--m-grid", "2,5,10,20"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "r,m,error"
    errs = [float(row.split(",")[2]) for row in rows[1:]]
    assert errs == sorted(errs, reverse=True)


def test_check_weight_witness(capsys):
    code = main(["check-weight", "--weight", "expabs", "--k", "0"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "k,C,r0,grid_size,attained_r,attained_z_re,attained_z_im"
    fields = rows[1].split(",")
    assert int(fields[0]) == 0
    assert float(fields[1]) == pytest.approx(1.6395871042628898, rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["check-weight", "--weight", "uniform", "--k", "0", "--grid-nr", "0"], "n_r"),
    (["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
      "--function", None, "--weight", "angularpoly", "--weight-theta-max", "3"],
     "outside the support"),
])
def test_invalid_input_found_while_running_exits_1(z_file, capsys, argv, message):
    code = main([z_file if a is None else a for a in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_overflowing_integrand_exits_1_naming_the_node(tmp_path, capsys):
    big = _function_file(tmp_path, "q 1\n0 0 1e200 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                     "--function", big])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: integrand is inf at node")
    assert not caught


def test_overflowing_point_term_exits_1_naming_the_base_point(tmp_path, capsys):
    big = _function_file(tmp_path, "q 1\n0 0 1e200 0\n")
    code = main(["norm", "--space", "dirichlet", "--domain", "disk", "--p", "2",
                 "--function", big])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: point term") and "base point z0 = 0j" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("domain, text", [
    # d_z multiplies z^2 by 2, d_zbar multiplies conj(z)^2 by 2
    ("halfplane", "q 1\n0 0 1.7e308 0\n0 2 -1.7e308 0\n"),
    ("disk", "q 3\n2 0 1.7e308 0\n"),
], ids=["d_z", "d_zbar"])
def test_overflowing_derivative_exits_1_without_a_warning(tmp_path, capsys, domain, text):
    big = _function_file(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--space", "dirichlet", "--domain", domain, "--p", "2",
                     "--function", big])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coefficients must be finite")
    assert "RuntimeWarning" not in err and not caught


def test_overflowing_integral_exits_1_without_a_warning(tmp_path, capsys):
    # |f|^2 = 1.69e308 is finite at every node, but the integral, pi times
    # that, is not
    big = _function_file(tmp_path, "q 1\n0 0 1.3e154 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                     "--function", big])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: integral overflows") and err.count("\n") == 1
    assert "RuntimeWarning" not in err and not caught


@pytest.mark.parametrize("argv, prefix", [
    # |z^3|^p overflows where the Besov weight (1 - s^2)^(p - 2) underflows to 0
    (["--space", "besov", "--domain", "disk", "--p", "1e300"],
     "error: integrand is inf at node"),
    (["--space", "dirichlet", "--domain", "halfplane", "--p", "2", "--quad-R", "1e200"],
     "error: --quad-R: R is 1e+200, too large for finite grid weights"),
    (["--space", "dirichlet", "--domain", "halfplane", "--p", "2", "--beta", "1e-310"],
     "error: --beta: beta is 1e-310, too small for a finite truncation radius"),
    (["--space", "bergman", "--domain", "disk", "--p", "1e-300"], "error: --p: p is 1e-300"),
    # s^400 overflows where sin^400 underflows to 0
    (["--space", "bergman", "--domain", "halfplane", "--p", "2", "--alpha", "400",
      "--no-refine", "--quad-nr", "16", "--quad-ntheta", "16"],
     "error: measure weight is nan at node s_11 e^(i theta_0)"),
    # exp(s) overflows where exp(-beta s^2) underflows to 0
    (["--space", "bergman", "--domain", "halfplane", "--p", "2", "--weight", "expabs",
      "--quad-R", "1000", "--beta", "1", "--no-refine", "--quad-nr", "16",
      "--quad-ntheta", "16"],
     "error: measure weight is nan at node s_10 e^(i theta_0)"),
], ids=["besov-p-1e300", "quad-R-1e200", "beta-1e-310", "p-1e-300", "alpha-400",
        "expabs-quad-R-1000"])
def test_out_of_range_numbers_exit_1_without_a_warning(tmp_path, capsys, argv, prefix):
    path = _function_file(tmp_path, "q 1\n0 3 1 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--function", path] + argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err and "RuntimeWarning" not in err and not caught


@pytest.mark.parametrize("argv, prefix", [
    (["--space", "bergman", "--domain", "halfplane", "--p", "2", "--alpha", "400",
      "--no-refine", "--quad-nr", "16", "--quad-ntheta", "16"],
     "error: measure weight is nan at node s_11 e^(i theta_0)"),
    (["--space", "bergman", "--domain", "halfplane", "--p", "2", "--weight", "expabs",
      "--quad-R", "1000", "--beta", "1", "--no-refine", "--quad-nr", "16",
      "--quad-ntheta", "16"],
     "error: measure weight is nan at node s_10 e^(i theta_0)"),
], ids=["alpha-400", "expabs-quad-R-1000"])
def test_a_zero_function_is_refused_by_its_measure_weight(tmp_path, capsys, argv, prefix):
    path = _function_file(tmp_path, "q 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["norm", "--function", path] + argv)
    assert code == 1
    assert capsys.readouterr().err.startswith(prefix)
    assert not caught


def test_suite_refuses_a_grid_whose_angles_alias_its_bands(capsys):
    # 4 angles resolve no cell's band; the self-checks are never reached
    assert main(["suite", "--quad-nr", "4", "--quad-ntheta", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --quad-ntheta: n_theta is 4, but ")


def test_a_fixed_grid_norm_that_would_alias_exits_1(tmp_path, capsys):
    # 1 + z^256: on 256 periodic midpoint angles harmonic 256 aliases
    path = _function_file(tmp_path, "q 1\n0 0 1 0\n0 256 1 0\n")
    code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                 "--function", path, "--no-refine"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --quad-ntheta: n_theta is 256, but the integrand's "
                          "angular band 256 ")


@pytest.mark.parametrize("weight", [
    [],
    ["--weight", "exprepow", "--weight-beta", "1", "--weight-n", "2"],
], ids=["uniform", "exprepow"])
def test_a_fixed_grid_even_p_norm_that_would_alias_on_the_nodes_exits_1(tmp_path, capsys,
                                                                       weight):
    # |1 + z^128|^4 = |1 + 2 z^128 + z^256|^2 has harmonic 256, which 256
    # angles alias on the moments and on the nodes alike
    path = _function_file(tmp_path, "q 1\n0 0 1 0\n0 128 1 0\n")
    code = main(["norm", "--space", "bergman", "--domain", "disk", "--p", "4",
                 "--function", path, "--no-refine", *weight])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --quad-ntheta: n_theta is 256, but the integrand's "
                          "angular band 256 ")


def test_a_cold_process_freezes_its_imports_and_prints_what_main_prints(z_file, capsys):
    argv = ["norm", "--space", "dirichlet", "--domain", "disk", "--p", "3",
            "--function", z_file]
    frozen = gc.get_freeze_count()
    code = main(argv)
    out, err = capsys.readouterr()
    # a caller that passes argv keeps its collector as it was
    assert gc.get_freeze_count() == frozen
    script = ("import gc, sys\n"
              "from polyspace.cli import main\n"
              "code = main()\n"
              "print(gc.get_freeze_count(), file=sys.stderr)\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                           env=env, timeout=120)
    assert (child.returncode, child.stdout) == (code, out.encode())
    *child_err, count = child.stderr.decode().splitlines()
    assert child_err == err.splitlines()
    # run as the program, main froze what the imports left alive
    assert int(count) > 0


def test_suite_half_plane_self_check_fails_on_a_broken_measure(monkeypatch, capsys):
    import dataclasses

    from polyspace import norms

    measure_density = norms._measure_density

    def without_sin_power(spec, grid):
        # for a uniform weight the half-plane rule loses sin^a theta, its only
        # angular factor: integral_0^pi sin theta = 2 becomes pi
        rule = measure_density(spec, grid)
        if spec.domain is Domain.HALFPLANE:
            rule = dataclasses.replace(rule, angle_weights=grid.angle_weights)
        return rule

    monkeypatch.setattr(norms, "_measure_density", without_sin_power)
    # rules kept from earlier tests would hide the patch, and the broken ones
    # must not outlive it
    for cache in (norms._level_rule, norms._level_moments):
        cache.cache_clear()
    try:
        code = main(["suite", "--quad-nr", "16", "--quad-ntheta", "64"])
    finally:
        for cache in (norms._level_rule, norms._level_moments):
            cache.cache_clear()
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("half-plane quadrature self-check failed: quad=")


def test_suite_dilatation_self_check_fails_on_a_broken_dilate(monkeypatch, capsys):
    from polyspace import polyfun

    # f_r = f makes every dilatation error 0 instead of (1 - r^2) sqrt(pi)
    monkeypatch.setattr(polyfun, "dilate", lambda f, r: f)
    assert main(["suite", "--quad-nr", "16", "--quad-ntheta", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dilatation self-check failed: err=0.0 ")


def test_suite_negative_control_fails_on_a_broken_verdict_rule(monkeypatch, capsys):
    from polyspace import experiments

    # a rule that passes every error lets the cell cut to r = 0.5 converge
    monkeypatch.setattr(experiments, "_errors_converge", lambda rows, limit: True)
    assert main(["suite", "--quad-nr", "16", "--quad-ntheta", "64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("negative control failed: besov:disk:p=2:")
    assert err.rstrip().endswith("mixed cut to r = 0.5 is converged")


def test_suite_allocates_little(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        main(["suite", "--quad-nr", "16", "--quad-ntheta", "64"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 253
    # the self-check draws no random samples: 10**6 of them were >= 24 MB
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command", ["limsup-check", "converge"])
def test_verdict_on_an_unresolved_integral_exits_2(tmp_path, capsys, command):
    # |2z - 1|^2.5 has a kink at z = 1/2, so rel_tol 1e-13 is out of reach
    path = _function_file(tmp_path, "q 1\n0 2 1 0\n0 1 -1 0\n")
    code = main([command, "--space", "besov", "--domain", "disk", "--p", "2.5",
                 "--function", path, "--quad-nr", "8", "--quad-ntheta", "16",
                 "--quad-rel-tol", "1e-13", "--r-grid", "0.9"])
    assert code == 2
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == 2
    assert err == "no verdict: an integral behind it did not converge\n"


def test_default_angular_weight_norm_converges(tmp_path, capsys):
    # the disk AngularPoly factor is not periodic, so its angles are
    # Gauss-Legendre on (0, 2 pi), which resolve the jump at theta = 0
    path = _function_file(tmp_path, "q 2\n0 0 0.5 0\n0 3 1 -0.5\n1 2 0 0.75\n")
    argv = ["norm", "--space", "dirichlet", "--domain", "disk", "--p", "3",
            "--weight", "angularpoly", "--function", path]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    config = parse_args(argv)
    flags = space_norm(load_function(path), config.spec, config.settings).flags
    assert flags.converged and flags.level <= 1


def test_check_weight_min_k_search(capsys):
    code = main(["check-weight", "--weight", "expabspow", "--beta", "1",
                 "--n", "2", "--k-max", "3"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    fields = rows[1].split(",")
    assert int(fields[0]) == 0
    assert float(fields[1]) <= 1.0 + 1e-9


_BERGMAN_NORM = ["norm", "--space", "bergman", "--domain", "disk", "--p", "2",
                 "--function", None]


@pytest.mark.parametrize("argv, flag", [
    (_BERGMAN_NORM + ["--quad-ntheta", "0"], "--quad-ntheta"),
    (_BERGMAN_NORM + ["--quad-nr", "0"], "--quad-nr"),
    (_BERGMAN_NORM + ["--quad-rel-tol", "-1"], "--quad-rel-tol"),
    (["suite", "--quad-nr", "0"], "--quad-nr"),
    (["check-weight", "--weight", "uniform", "--k", "0", "--grid-nr", "0"], "--grid-nr"),
    (["check-weight", "--weight", "uniform", "--k", "0", "--grid-nz", "0"], "--grid-nz"),
])
def test_bad_grid_sizes_and_tolerance_name_the_flag(z_file, capsys, argv, flag):
    code = main([z_file if a is None else a for a in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert "Traceback" not in err


def test_input_error_while_running_leaves_no_output_file(z_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main([z_file if a is None else a for a in _BERGMAN_NORM]
                + ["--weight", "angularpoly", "--weight-theta-max", "3",
                   "--output", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_failed_verdict_still_writes_its_output_file(zbar_z_file, tmp_path):
    out = tmp_path / "out.csv"
    code = main(["converge", "--space", "besov", "--domain", "disk", "--p", "2",
                 "--function", zbar_z_file, "--threshold", "1e-12",
                 "--output", str(out)])
    assert code == 2
    assert out.read_text().splitlines()[0] == "r,err_seminorm,err_fullnorm"


def test_unwritable_output_exits_1(z_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    code = main([z_file if a is None else a for a in _BERGMAN_NORM]
                + ["--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


_NORM_HALF = ["norm", "--space", "bergman", "--domain", "halfplane", "--p", "2",
              "--function", None]
_CONVERGE = ["converge", "--space", "dirichlet", "--domain", "disk", "--p", "2",
             "--function", None]
_CHECK_WEIGHT = ["check-weight", "--weight", "uniform"]
_APPROX = ["approx", "--space", "dirichlet", "--domain", "disk", "--p", "2",
           "--function", None, "--r", "0.9"]


@pytest.mark.parametrize("argv, flag", [
    (_BERGMAN_NORM + ["--p", "inf"], "--p"),
    (_BERGMAN_NORM + ["--quad-R", "4"], "--quad-R"),
    (_NORM_HALF + ["--quad-R", "-1"], "--quad-R"),
    (_NORM_HALF + ["--alpha", "nan"], "--alpha"),
    (_NORM_HALF + ["--beta", "nan"], "--beta"),
    (_BERGMAN_NORM + ["--weight", "product", "--weight-gamma", "nan"], "--weight-gamma"),
    (_BERGMAN_NORM + ["--weight", "angularpoly", "--weight-theta-max", "inf"],
     "--weight-theta-max"),
    (_BERGMAN_NORM + ["--weight", "expabspow", "--weight-beta", "inf"], "--weight-beta"),
    (_BERGMAN_NORM + ["--weight", "exprepow", "--weight-beta", "inf"], "--weight-beta"),
    (_CHECK_WEIGHT + ["--k-max", "-1"], "--k-max"),
    (_CHECK_WEIGHT + ["--k", "0", "--k-max", "2"], "--k-max"),
    (_CHECK_WEIGHT + ["--k", "0", "--r0", "1.5"], "--r0"),
    (_CONVERGE + ["--threshold", "nan"], "--threshold"),
    (_CONVERGE + ["--r-grid", "0.5,1.5"], "--r-grid"),
    (["suite", "--threshold", "nan"], "--threshold"),
    (_APPROX + ["--m-grid", "-1,2"], "--m-grid"),
    (_CONVERGE + ["--r-grid", "-0.5,0.9"], "--r-grid"),
    (["suite", "--r-grid", "-0.5,0.9"], "--r-grid"),
])
def test_bad_input_exits_1_naming_the_flag(z_file, capsys, argv, flag):
    code = main([z_file if a is None else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("argv, message", [
    (_APPROX + ["--m-grid", "-1,2"], "--m-grid: m_grid must hold nonnegative degrees, got -1"),
    (_CONVERGE + ["--r-grid", "-0.5,0.9"],
     "--r-grid: r_grid values must lie in (0, 1), got -0.5"),
])
def test_list_values_starting_with_minus_reach_the_library(z_file, capsys, argv, message):
    assert main([z_file if a is None else a for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_list_flag_without_a_value_is_a_usage_error():
    with pytest.raises(UsageError, match="^--r-grid: expected one argument"):
        parse_args(["suite", "--r-grid", "--threshold", "0.1"])


def test_suite_has_no_seed_flag():
    with pytest.raises(UsageError, match="--seed"):
        parse_args(["suite", "--seed", "0"])


def _readme_cli_examples():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("polyspace "):
                examples.append(shlex.split(line)[1:])
    return examples


def test_readme_command_line_examples_parse(tmp_path, monkeypatch):
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == {
        "norm", "converge", "limsup-check", "approx", "check-weight", "suite"}
    monkeypatch.chdir(tmp_path)
    _function_file(tmp_path, "q 2\n1 1 1 0\n")
    for argv in examples:
        assert parse_args(argv).command == argv[0]
