"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed line per
criterion next to the numbers it was judged on. Where a criterion is a check
of `daverify.checks`, it runs that function and asserts on its rows, so the
gate and the CLI judge by one implementation. Criterion 8 asserts an
empirical convergence-rate threshold that the weighted Fourier partial sums do
not meet in the stated sweep; it is implemented exactly as stated and fails
honestly, with the measured rates and the quantitative reason in the
assertion message.
"""

import math
import time
from fractions import Fraction

import numpy as np

from daverify import checks
from daverify.cantor import riesz_energy
from daverify.disc_kernel import build_kernel_sequence, float_coeff_sequence
from daverify.exact import multi_indices
from daverify.henkin import build_witness, henkin_identity_check, non_henkin_witness

SEED = checks.DEFAULT_SEED


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _rows(check, **params) -> tuple[dict[str, dict], float]:
    """The rows of one check function by check name, and its wall time."""
    t0 = time.perf_counter()
    _config, rows, _tables = check(**params)
    return {row["check"]: row for row in rows}, time.perf_counter() - t0


def test_criterion_01_exact_norms_against_kernel_expansion_oracle():
    rows, elapsed = _rows(checks.verify_norms, maxdeg=8, dims=(1, 2, 3, 4))
    oracle = [rows[f"norms/kernel-expansion-oracle-d{d}"] for d in (1, 2, 3, 4)]
    checked = sum(row["checked"] for row in oracle)
    mismatches = sum(row["mismatches"] for row in oracle)
    ok = all(row["pass"] for row in oracle) and elapsed < 1.0
    _line(1, ok, f"{checked} monomials, {mismatches} mismatches, {elapsed:.2f}s")
    assert all(row["pass"] for row in oracle)
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_02_dirichlet_coefficients_exact_to_200():
    t0 = time.perf_counter()
    seq = build_kernel_sequence(2, 200)
    bad = [n for n in range(201)
           if seq.a_exact[n] != Fraction(math.factorial(2 * n),
                                         4 ** n * math.factorial(n) ** 2)]
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    _line(2, ok, f"n <= 200 exact, {len(bad)} mismatches, {elapsed:.2f}s")
    assert not bad
    assert elapsed < 1.0


def test_criterion_03_stirling_normalized_ratios():
    t0 = time.perf_counter()
    details = []
    ok = True
    for d, power in ((2, 0.5), (4, 1.5)):
        a = float_coeff_sequence(d, 10_000)
        ratio = a * (np.arange(10_001, dtype=np.float64) + 1.0) ** power
        step = abs(ratio[400] - ratio[200]) / ratio[200]
        window = ratio[100:]
        lo, hi = float(window.min()), float(window.max())
        ok = ok and step < 0.01 and 0.0 < lo <= hi < math.inf
        details.append(f"d={d}: |r400-r200|/r200={step:.4%}, "
                       f"envelope [{lo:.6f}, {hi:.6f}]")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _line(3, ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_04_isometry_exact_on_random_lists():
    rows, _elapsed = _rows(checks.verify_isometry, count=100, maxdeg=30, seed=SEED)
    random_rows = [rows[f"isometry/random-exact-d{d}"] for d in (2, 4)]
    failures = sum(row["failures"] for row in random_rows)
    ok = all(row["pass"] and row["trials"] == 100 for row in random_rows)
    _line(4, ok, f"100 lists x (d=2, d=4), {failures} inexact")
    assert ok
    assert failures == 0


def test_criterion_05_d4_henkin_identity_exact_to_degree_24():
    t0 = time.perf_counter()
    witness = build_witness("D4", 6)
    res = henkin_identity_check("D4", 24, witness)
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.checked == len(multi_indices(4, 24)) and elapsed < 30.0
    _line(5, ok, f"{res.checked} monomials exact-equal, {elapsed:.2f}s")
    assert res.passed
    assert res.checked == 20475
    assert elapsed < 30.0


def test_criterion_06_d4_non_henkin_witness():
    t0 = time.perf_counter()
    rep = non_henkin_witness(n_max=50, grid_points=1000, grid_radius=0.9, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.integrals_all_one and rep.max_fn_final < 1e-6 \
        and rep.n_below_threshold <= 1000 and elapsed < 10.0
    _line(6, ok, f"integrals one for n<=50: {rep.integrals_all_one}, "
          f"max|f_n| at n=1000: {rep.max_fn_final:.2e} "
          f"(below 1e-6 from n={rep.n_below_threshold}), {elapsed:.2f}s")
    assert rep.integrals_all_one
    assert rep.n_below_threshold <= 1000
    assert rep.max_fn_final < 1e-6
    assert elapsed < 10.0


def test_criterion_07_cantor_fourier_routes_agree():
    rows, elapsed = _rows(checks.cantor_fourier, max_n=256, eps=1e-10, level=14)
    routes, sym = rows["cantor/recursion-vs-ifs-oracle"], rows["cantor/conjugate-symmetry"]
    ok = routes["pass"] and sym["pass"] and elapsed < 10.0
    _line(7, ok, f"max route difference {routes['max_abs_diff']:.3e}, "
          f"symmetry defect {sym['defect']:.3e}, {elapsed:.2f}s")
    assert routes["pass"]
    assert sym["pass"]
    assert elapsed < 10.0


def test_criterion_08_weighted_fourier_partial_sums():
    rows, elapsed = _rows(checks.cantor_fourier, sweep_pow=17)
    sweep = rows["cantor/weighted-sum-nondecreasing"]
    nondecreasing = sweep["pass"]
    # increase from 2^p to 2^(p+1), for p >= 14
    late = {p: sweep["per_doubling_increase"][f"2^{p + 1}"] for p in range(14, 17)}
    rate_ok = all(inc < checks.DOUBLING_RATE_TOL for inc in late.values())
    ok = nondecreasing and rate_ok and elapsed < 60.0
    detail = ", ".join(f"2^{p}->2^{p + 1}: {inc:.3%}" for p, inc in late.items())
    _line(8, ok, f"nondecreasing: {nondecreasing}; per-doubling from 2^14: "
          f"{detail}; {elapsed:.2f}s")
    assert nondecreasing
    assert elapsed < 60.0
    assert rate_ok, (
        "partial sums converge but the per-doubling increase beyond N=2^14 "
        f"is not yet under 1%: {detail}. The increments decay like "
        "N**(log(2)/log(3) - 1/2) ~ N**-0.13 with a log-periodic wobble, so "
        "a uniform sub-1% rate first holds near N~2^24, outside the stated "
        "sweep range."
    )


def test_criterion_09_riesz_energy_estimates():
    t0 = time.perf_counter()
    e10 = riesz_energy(10)
    e12 = riesz_energy(12)
    elapsed = time.perf_counter() - t0
    gap = abs(e12.lower - e10.lower) / e12.lower
    upper_ok = math.isfinite(e12.upper) and math.isfinite(e10.upper)
    ok = upper_ok and gap < 0.01 and elapsed < 60.0
    _line(9, ok, f"lower(10)={e10.lower:.6f}, lower(12)={e12.lower:.6f} "
          f"(gap {gap:.2%}), upper(12)={e12.upper:.6f} finite: {upper_ok}, "
          f"{elapsed:.2f}s")
    assert upper_ok
    assert elapsed < 60.0
    assert gap < 0.01, (
        f"the proven lower bounds on the Riesz energy at levels 10 and 12 "
        f"differ by {gap:.2%}: [{e10.lower:.6f}, {e10.upper:.6f}] against "
        f"[{e12.lower:.6f}, {e12.upper:.6f}]."
    )


def test_criterion_10_d2_henkin_identity_independent_routes():
    rows, elapsed = _rows(checks.henkin_check, dim=2, maxdeg=100, eps=1e-10, level=14,
                          tol=1e-10)
    row = rows["henkin/d2-two-route-identity"]
    ok = row["pass"] and elapsed < 30.0
    _line(10, ok, f"diagonal n <= 100 max deviation {row['max_dev']:.3e} "
          f"(tol {row['tol']:.0e}), {row['checked']} entries incl. exact off-diagonal "
          f"zeros, {elapsed:.2f}s")
    assert row["pass"]
    assert row["max_dev"] <= row["tol"]
    assert elapsed < 30.0


def test_criterion_11_monte_carlo_moment_cross_check():
    t0 = time.perf_counter()
    details = []
    ok = True
    for dim in (4, 2):
        rows, _elapsed = _rows(checks.moments, dim=dim, count=100, samples=100_000, seed=SEED)
        row = rows["moments/batch-4-sigma-agreement"]
        ok = ok and row["pass"] and row["count"] == 100
        details.append(f"D{dim}: {row['within_4_sigma']}/{row['count']} within 4 sigma")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _line(11, ok, "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_12_compression_norms():
    t0 = time.perf_counter()
    details = []
    ok = True
    for dim in (2, 4):
        rows, _elapsed = _rows(checks.compression_norms, dim=dim, sections=(1, 2, 4, 8))
        growth = rows["compression/nondecreasing-in-section"]
        floor = rows["compression/exceeds-multiplier-floor"]
        ok = ok and growth["pass"] and floor["pass"]
        details.append(f"d={dim}: sigma={growth['sigma_max'][-1]:.12f} above "
                       f"||r||={floor['floor']:.12f}: {floor['pass']}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(12, ok, "; ".join(details) + f", nondecreasing over N in {{1,2,4,8}}, "
          f"{elapsed:.2f}s")
    assert ok


def test_criterion_13_peak_function():
    rows, elapsed = _rows(checks.peak_check, samples=10_000, seed=SEED, delta=1e-2)
    peak = rows["peak/equals-one-on-support"]
    inside = rows["peak/strictly-inside-off-support"]
    ok = peak["pass"] and inside["pass"] and elapsed < 10.0
    _line(13, ok, f"max |f-1| on support {peak['max_peak_dev']:.2e}, "
          f"min margin off support {inside['min_margin']:.2e} over {inside['kept']} "
          f"delta-separated points, {elapsed:.2f}s")
    assert peak["pass"]
    assert inside["pass"]
    assert inside["min_margin"] > 0.0
    assert elapsed < 10.0
