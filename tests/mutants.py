"""Seeded single-edit mutants of ``src/polyspace``, each run against the tier-1 tests.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the harness copies the repository, without ``.git`` and
caches, to a temporary directory, applies one textual edit there, and runs
``python -m pytest -x -q`` in the copy, without ``tests/test_mutant_edits.py``,
which checks that the edits apply.  A mutant is killed when the tests
fail.  The run prints one line per mutant and a kill count, and exits 1 when
a mutant survives that the tests should kill, or when an edit no longer
matches the source exactly once.  It needs only the standard library and a
pytest that can run the suite; pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file under src/polyspace, text, replacement)
MUTANTS = [
    # verdicts and certificates
    ("dilatation-errors-may-grow", "experiments.py",
     "return rows[-1].err_fullnorm <= limit and rows[-1].err_fullnorm <= rows[0].err_fullnorm",
     "return rows[-1].err_fullnorm <= limit"),
    ("dilatation-threshold-10x", "experiments.py",
     "_errors_converge(rows, threshold * ref.full_norm)",
     "_errors_converge(rows, threshold * ref.full_norm * 10)"),
    # killed by test_experiments.py::test_a_limsup_margin_is_certified_up_to_its_tolerance
    ("limsup-tolerance-100x", "experiments.py",
     "ok = max(dz) - rhs_dz <= tol * rhs_dz",
     "ok = max(dz) - rhs_dz <= 100 * tol * rhs_dz"),
    # the one verdict rule of the three reports; the limsup test above kills it too
    ("verdict-ignores-flags", "experiments.py",
     "if not all(res.converged for res in flags):",
     "if False:"),
    ("approx-slack-loosened", "experiments.py",
     "ok = rows[-1].error <= (1.0 + slack) * dil.full_norm",
     "ok = rows[-1].error <= (1.0 + 10 * slack) * dil.full_norm"),
    # measures and rules
    ("no-gauss-jacobi-folding", "norms.py",
     "tuple(e - math.floor(e) for e in exponents)",
     "tuple(0.0 for e in exponents)"),
    ("halfplane-sin-power-dropped", "norms.py",
     "angular = angular * np.sin(grid.angles) ** expo",
     "angular = angular"),
    ("besov-disk-exponent-off-by-one", "norms.py",
     "radial = radial * (1.0 - s**2) ** (spec.p - 2.0)",
     "radial = radial * (1.0 - s**2) ** (spec.p - 1.0)"),
    ("besov-halfplane-exponent-off-by-one", "norms.py",
     "return spec.alpha + (spec.p - 2.0 if spec.kind is SpaceKind.BESOV else 0.0)",
     "return spec.alpha + (spec.p - 1.0 if spec.kind is SpaceKind.BESOV else 0.0)"),
    ("halfplane-endpoint-exponent-halved", "norms.py",
     "        r0 += a\n",
     "        r0 += a / 2\n"),
    ("point-term-dropped", "norms.py",
     "full = (point_term + integral) ** (1.0 / spec.p)",
     "full = integral ** (1.0 / spec.p)"),
    # killed by test_norms.py::test_the_disk_point_term_is_horner_at_0_bit_for_bit
    ("disk-point-term-reads-coeffs-0-1", "norms.py",
     "base = f.coeffs[0, 0] if",
     "base = f.coeffs[0, 1] if"),
    ("expabs-decays", "weights.py",
     "        return np.exp(s)\n",
     "        return np.exp(-s)\n"),
    ("jacobian-off-by-1e-9", "quadrature.py",
     "weights = s.weights * s.nodes\n",
     "weights = s.weights * s.nodes * (1.0 + 1e-9)\n"),
    ("shorter-truncation-radius", "quadrature.py",
     "return max(8.0, R)",
     "return max(4.0, R)"),
    # |.|^p on the nodes, and the zero integrand
    ("quarter-root-dropped", "norms.py",
     "        if k == 1:\n            np.sqrt(root, out=root)\n",
     "        if k == 1:\n            pass\n"),
    ("integer-power-one-product-short", "norms.py",
     "a *= np.multiply(a, a, out=square)",
     "np.multiply(a, a, out=a)"),
    ("zero-shortcut-without-finiteness-check", "norms.py",
     "elif plan.zero and separable and np.isfinite(grid.radial_weights).all() and (\n"
     "                    np.isfinite(grid.angle_weights).all()):",
     "elif plan.zero and separable:"),
    # refinement
    ("max-level-reported-converged", "quadrature.py",
     "RefineResult(cur, change[i], False, settings.max_level, True, truncated)",
     "RefineResult(cur, change[i], True, settings.max_level, True, truncated)"),
    ("refinement-stops-at-level-1", "quadrature.py",
     "if out[i] is None and level >= settings.max_level:",
     "if out[i] is None and level >= min(settings.max_level, 1):"),
    # killed by test_quadrature.py::test_refine_levels_walks_absolute_levels_from_first
    ("refine-levels-ignores-first", "quadrature.py",
     "settings, (first,))[0]",
     "settings, (0,))[0]"),
    # killed by test_quadrature.py::test_a_converged_walk_reports_the_value_of_its_last_level
    ("converged-member-reports-the-previous-value", "quadrature.py",
     "RefineResult(cur, change[i], True, level, True, truncated)",
     "RefineResult(prev[i], change[i], True, level, True, truncated)"),
    # coefficient calculus
    ("dilate-uses-r-to-the-j", "polyfun.py",
     "return scale_by_degree(f, float(r) ** np.arange(f.degree_z + f.q))",
     "return PolyFunction(f.coeffs * float(r) ** np.arange(f.degree_z + 1))"),
    # every member of a dilatation family reads its coefficients here; killed by
    # test_polyfun.py::test_scale_by_degree_scales_each_monomial_by_its_radial_degree
    ("sigma-indexed-by-j", "polyfun.py",
     "return PolyFunction(f.coeffs * sigma[degrees])",
     "return PolyFunction(f.coeffs * sigma[np.arange(f.degree_z + 1)])"),
    ("d-zbar-factor-changed", "polyfun.py",
     "f.coeffs[1:] * np.arange(1, f.q)[:, None]",
     "f.coeffs[1:] * np.arange(2, f.q + 1)[:, None]"),
    # killed by test_norms.py::test_half_powers_take_few_products_and_keep_k_2_and_3_bit_for_bit
    ("half-power-skips-a-set-bit", "norms.py",
     "                acc = polyfun.mul(acc, f)\n",
     "                pass\n"),
    ("mul-drops-a-cross-term", "polyfun.py",
     "            out[k + k2, : h.size + h2.size - 1] += np.convolve(h, h2)\n",
     "            if k <= k2:\n"
     "                out[k + k2, : h.size + h2.size - 1] += np.convolve(h, h2)\n"),
    # killed by test_polyfun.py::test_d_z_termwise and by
    # test_polyfun.py::test_array_calculus_matches_the_row_reference_bit_for_bit
    ("d-z-column-factor-shifted", "polyfun.py",
     "f.coeffs[:, 1:] * np.arange(1, f.degree_z + 1)",
     "f.coeffs[:, 1:] * np.arange(2, f.degree_z + 2)"),
    # killed by test_polyfun.py::test_d_zbar_drops_one_order, whose conj(z) z^2
    # has no row 2
    ("from-monomials-transposed", "polyfun.py",
     "coeffs[k, j] = c",
     "coeffs[j, k] = c"),
    # node values powers[rows] @ B; each is killed by
    # test_polyfun.py::test_grid_evaluation_matches_horner and by
    # test_norms.py::test_node_and_moment_sums_of_the_square_agree
    ("angular-matrix-radial-row-j", "polyfun.py",
     "out[k + j: k + j + len(term)] += term",
     "out[j: j + len(term)] += term"),
    ("angular-matrix-harmonic-row-j-plus-k", "polyfun.py",
     "table[j - k - lo: j - k - lo + len(term)]",
     "table[j + k - lo: j + k - lo + len(term)]"),
    # the one power recurrence; killed by
    # test_polyfun.py::test_grid_evaluation_matches_horner and by
    # test_polyfun.py::test_power_recurrence_matches_the_loops_bit_for_bit
    ("harmonic-rows-not-conjugated", "quadrature.py",
     "np.conj(table[-2 * lo: -lo: -1], out=table[:-lo])",
     "np.copyto(table[:-lo], table[-2 * lo: -lo: -1])"),
    # killed by test_polyfun.py::test_power_recurrence_matches_the_loops_bit_for_bit
    ("moments-carried-row-dropped", "polyfun.py",
     "        np.multiply(rows[-1], u, out=row)\n",
     ""),
    # the power tables kept per rule; killed by
    # test_quadrature.py::test_a_grid_with_replaced_nodes_never_reads_its_rule_table
    ("rule-table-ignores-replaced-angles", "quadrature.py",
     "own = rule is not None and nodes is rule.nodes",
     "own = rule is not None"),
    # a narrower range read from a wider kept table; killed by
    # test_quadrature.py::test_rule_tables_are_the_fresh_tables_whatever_order_of_widths
    ("rule-table-row-offset-ignores-low", "quadrature.py",
     "return table[lo - low: hi - low + 1]",
     "return table[: hi - lo + 1]"),
    ("radius-powers-shifted-by-one", "polyfun.py",
     "radial = powers[rows, :width]",
     "radial = powers[rows, 1:width + 1]"),
    # the moment (Gram) sums
    ("gram-guard-off", "polyfun.py",
     "return float(total) if bound < 1e3 * total else None",
     "return float(total)"),
    ("gram-moments-transposed", "polyfun.py",
     "mu[mu.size // 2 + index - rows]",
     "mu[mu.size // 2 + rows - index]"),
    ("gram-radial-moments-shifted", "polyfun.py",
     "** np.arange(2 * width - 1)\n",
     "** (np.arange(2 * width - 1) + 1)\n"),
    # the level rules kept per space; killed by
    # test_norms.py::test_a_refined_norm_builds_one_rule_per_level_and_the_next_norm_none
    ("level-rule-at-level-0", "norms.py",
     "rule = (spec, *settings.sizes(level))",
     "rule = (spec, *settings.sizes(0))"),
    # killed by test_norms.py::test_an_even_p_norm_takes_the_moments_of_its_widest_half
    ("moments-for-the-wrong-width", "norms.py",
     "_level_moments(*rule, plan.band + 1)",
     "_level_moments(*rule, plan.band + 2)"),
    # killed by test_norms.py::test_an_even_p_norm_takes_the_moments_at_every_level_that_resolves_its_band
    ("half-powers-band-against-level-0", "norms.py",
     "halves = _half_powers([own[i] for i in used], k, spec) if even else None",
     "halves = _half_powers([own[i] for i in used], k, spec) if even and band < settings.n_theta"
     " else None"),
    # |part|^p = |part^k|^2 has band k (D + q - 1) on the nodes too; killed by
    # test_norms.py::test_a_fixed_grid_even_p_norm_is_refused_on_the_band_of_its_powers
    ("node-band-without-k", "norms.py",
     "band = k * max(",
     "band = (k if spec.weight.planar_factor is None else 1) * max("),
    # killed by test_cli.py::test_out_of_range_numbers_exit_1_without_a_warning[besov-p-1e300],
    # whose p has no level that resolves k (D + q - 1)
    ("huge-even-p-takes-the-k-band", "norms.py",
     "even = spec.p % 2 == 0 and spec.p < 2 * finest",
     "even = spec.p % 2 == 0"),
    # the first level resolves the band; each is killed by
    # test_quadrature.py::test_the_first_level_is_the_coarsest_whose_angles_exceed_the_band,
    # by test_quadrature.py::test_a_band_beyond_the_finest_level_is_refused and by
    # test_norms.py::test_a_grid_whose_finest_level_aliases_the_band_is_refused
    ("first-level-one-doubling-too-low", "quadrature.py",
     "first = lowest + (band // self.sizes(lowest)[1]).bit_length()",
     "first = lowest + (band // (2 * self.sizes(lowest)[1])).bit_length()"),
    # refinement starts below the fixed grid; killed by
    # test_quadrature.py::test_the_first_level_is_no_lower_than_both_sizes_halve and by
    # test_norms.py::test_a_default_refined_norm_confirms_below_the_fixed_grid
    ("coarse-start-at-level-0", "quadrature.py",
     "lowest = -min(2, (both & -both).bit_length() - 1) if self.refine else 0",
     "lowest = 0"),
    # killed by test_quadrature.py::test_a_band_beyond_the_finest_level_is_refused
    ("refusal-off-by-one", "quadrature.py",
     "if first > (last := self.last_level):",
     "if first > (last := self.last_level) + 1:"),
    # the suite's half-plane self-check; killed by test_cli.py::test_suite_allocates_little,
    # whose suite must print its CSV
    ("suite-self-check-wrong-spec", "cli.py",
     "Uniform(), alpha=1, beta=1)",
     "Uniform(), alpha=2, beta=1)"),
    # killed by
    # test_cli.py::test_a_cold_process_freezes_its_imports_and_prints_what_main_prints
    ("gc-freeze-dropped", "cli.py",
     "        gc.freeze()\n",
     "        pass\n"),
    # killed by test_polyfun.py::test_power_recurrence_matches_the_loops_bit_for_bit,
    # whose reference sums mu[0] with math.fsum
    ("mu0-summed-pairwise", "polyfun.py",
     "mu[lags] = math.fsum(weights)",
     "mu[lags] = mu[lags]"),
    # the Gram matrix kept with the moments; killed by
    # test_norms.py::test_the_gram_bound_reads_the_modulus_of_the_kept_matrix
    ("gram-bound-reads-the-kept-w", "polyfun.py",
     "size = moments.size[rows, :n] if kept",
     "size = moments.gram[rows, :n] if kept"),
    # killed by test_norms.py::test_a_kept_gram_matrix_sums_bit_for_bit_as_the_built_one
    ("kept-gram-sliced-from-its-last-columns", "polyfun.py",
     "gram = (moments.gram[rows, :n] if kept",
     "gram = (moments.gram[rows, -n:] if kept"),
    # dilatation families; each sigma mutant is killed by
    # test_norms.py::test_a_node_family_matches_its_members_one_at_a_time
    ("limsup-sigma-r-to-the-n", "experiments.py",
     "degrees = np.arange(1, part.degree_z + part.q + 1)",
     "degrees = np.arange(0, part.degree_z + part.q)"),
    ("convergence-sigma-r-to-the-n-minus-1", "norms.py",
     "shift = 0 if spec.kind is SpaceKind.BERGMAN else 1",
     "shift = 0"),
    # killed by test_norms.py::test_a_family_computes_a_level_only_for_members_still_running
    ("stopped-member-gets-later-levels", "norms.py",
     "        for i in running:\n            plan = plans[i]\n",
     "        for i in range(len(plans)):\n            plan = plans[i]\n"),
]

# mutants the tier-1 tests are not meant to kill, and what sees them instead
LEFT_TO = {}


def _copy(dest):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".work", ".benchmarks")
    shutil.copytree(ROOT, dest, ignore=ignore)


def run(name, path, text, replacement):
    """``"killed"``, ``"survived"`` or ``"stale"`` (the edit does not apply)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        _copy(copy)
        target = os.path.join(copy, "src", "polyspace", path)
        with open(target, encoding="utf-8") as fh:
            source = fh.read()
        if source.count(text) != 1:
            return "stale"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        # the check that every edit applies fails on any edited copy
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--ignore", os.path.join("tests", "test_mutant_edits.py")],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=1800)
        return "survived" if proc.returncode == 0 else "killed"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    killed, bad = 0, []
    for name, path, text, replacement in chosen:
        start = time.perf_counter()
        outcome = run(name, path, text, replacement)
        killed += outcome == "killed"
        note = ""
        if outcome == "survived" and name in LEFT_TO:
            note = f" (left to {LEFT_TO[name]})"
        elif outcome != "killed":
            bad.append(name)
        print(f"{outcome:8s} {name}  [{time.perf_counter() - start:.0f} s]{note}", flush=True)
    print(f"{killed} of {len(chosen)} mutants killed; "
          f"{len(bad)} unexpected: {', '.join(bad) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
