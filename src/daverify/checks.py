"""The checks behind every `daverify` command, one function per command.

Each function takes the command's parameters as keyword arguments, with its
defaults in its signature, raises ConfigError on an invalid value (the
library refuses its own bad inputs, so only the command's rules are here),
and returns (config, rows, tables): the configuration it ran with, one dict per
check (its name under "check", its verdict under "pass", the numbers it was
judged on), and the CSV tables, name -> (header, function of no arguments
returning the rows), so that rows are built only when a CSV is written.
The defaults that depend on the dimension are None in the signature and
filled in on the branch that reads them: henkin-check's maxdeg, eps, level
and tol, witness's n, eps, level and seed, and moments' count and max_exp.
PLAN lists the stages of `daverify all`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from . import cantor, compression, disc_kernel, henkin, norms
from .exact import ConfigError, QComplex, multi_indices

DEFAULT_SEED = 20240817

# A per-doubling relative increase of the weighted Fourier partial sums below
# this counts as converged (acceptance criterion 8).
DOUBLING_RATE_TOL = 0.01


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _require_seed(seed: int) -> None:
    # checked before any stage runs, so that `all` refuses a bad seed up front
    _require(seed >= 0, "seed must be >= 0")


def _require_dim(dim: int) -> None:
    _require(dim in norms.SUPPORTED_DIMS, f"dim must be one of {norms.SUPPORTED_DIMS}")


def _require_ifs_level(level: int) -> None:
    # the library takes level 0, a single atom at 1/2: no discretization of sigma
    _require(level >= 1, "level must be >= 1")


def _require_unset(only: str, **params) -> None:
    # a parameter the branch taken never reads must not be accepted and ignored
    given = [name for name, value in params.items() if value is not None]
    _require(not given, f"only {only} takes {', '.join(given)}")


# ---------------------------------------------------------------------------
# verify-norms


def _norm_oracle_counts(d: int, m: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of monomials in <z, w>^m by direct enumeration of the
    d^m coordinate assignments. Independent of any factorial formula."""
    counts: dict[tuple[int, ...], int] = {}
    for assignment in itertools.product(range(d), repeat=m):
        content = [0] * d
        for pos in assignment:
            content[pos] += 1
        key = tuple(content)
        counts[key] = counts.get(key, 0) + 1
    return counts


def verify_norms(maxdeg: int = 8, dims: tuple[int, ...] = (1, 2, 3, 4)):
    """Monomial norms against the kernel-expansion oracle, the isometric
    extension to more variables, and frozen examples."""
    _require(0 <= maxdeg <= 10, "maxdeg must be in [0, 10] for the enumeration oracle")
    _require(len(dims) > 0, "dims must name at least one dimension")
    _require(all(1 <= d <= 4 for d in dims), "dims must lie in 1..4")
    results = []
    for d in sorted(set(dims)):
        bad = 0
        checked = 0
        for m in range(maxdeg + 1):
            for alpha, mult in _norm_oracle_counts(d, m).items():
                # the kernel expansion gives ||z^alpha||^2 = multiplicity^{-1}
                if norms.monomial_norm_sq(alpha) != Fraction(1, mult):
                    bad += 1
                checked += 1
        results.append({"check": f"norms/kernel-expansion-oracle-d{d}",
                        "pass": bad == 0, "checked": checked, "mismatches": bad})

    ext_bad = 0
    ext_checked = 0
    for d in (1, 2, 3):
        for alpha in multi_indices(d, min(maxdeg, 6)):
            for d_prime in range(d, 5):
                if not norms.extension_norm_check(alpha, d_prime):
                    ext_bad += 1
                ext_checked += 1
    results.append({"check": "norms/extension-isometric", "pass": ext_bad == 0,
                    "checked": ext_checked, "mismatches": ext_bad})

    examples_ok = (
        norms.monomial_norm_sq((0, 0, 0, 0)) == 1
        and norms.monomial_norm_sq((1, 1)) == Fraction(1, 2)
        and norms.monomial_norm_sq((2, 1)) == Fraction(1, 3)
        and norms.r_power_norm_sq(2, 1) == 2
        and norms.r_power_norm_sq(4, 1) == Fraction(32, 3)
    )
    results.append({"check": "norms/frozen-examples", "pass": examples_ok})
    return {"maxdeg": maxdeg, "dims": sorted(set(dims))}, results, {}


# ---------------------------------------------------------------------------
# verify-isometry


# The most random coefficient lists verify_isometry checks per dimension:
# 1000 lists take 0.7 s at maxdeg 30 and 17 s at norms.MAX_ISOMETRY_DEGREE.
MAX_ISOMETRY_COUNT = 1000


def verify_isometry(count: int = 100, maxdeg: int = 30, seed: int = DEFAULT_SEED):
    """The disc-to-ball embedding is exactly isometric on `count` random
    Gaussian-rational coefficient lists per dimension, of degree up to maxdeg."""
    _require(1 <= count <= MAX_ISOMETRY_COUNT, f"count must be in [1, {MAX_ISOMETRY_COUNT}]")
    _require(0 <= maxdeg <= norms.MAX_ISOMETRY_DEGREE,
             f"maxdeg must be in [0, {norms.MAX_ISOMETRY_DEGREE}]")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    results = []
    for d in norms.SUPPORTED_DIMS:
        bad = 0
        for _ in range(count):
            deg = int(rng.integers(0, maxdeg + 1))
            coeffs = [
                QComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                         Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))))
                for _ in range(deg + 1)
            ]
            if not norms.isometry_check(coeffs, d).equal:
                bad += 1
        results.append({"check": f"isometry/random-exact-d{d}", "pass": bad == 0,
                        "trials": count, "failures": bad})
        one = norms.isometry_check([1], d)
        lin = norms.isometry_check([0, 1], d)
        results.append({
            "check": f"isometry/examples-d{d}",
            "pass": one.equal and one.disc_norm_sq == 1
            and lin.equal and lin.disc_norm_sq == norms.r_power_norm_sq(d, 1),
        })
    return {"count": count, "maxdeg": maxdeg, "seed": seed}, results, {}


# ---------------------------------------------------------------------------
# kernel-table


def kernel_table(dim: int = 2, n: int = 200):
    """The weights a_n = 1/||r^n||^2 for n <= `n`: exact identities, the
    normalized envelope, and the partial sums (convergent for D4, square-root
    divergent for D2)."""
    _require_dim(dim)
    seq = disc_kernel.build_kernel_sequence(dim, n)
    results = []

    norm_sq = [norms.r_power_norm_sq(dim, k) for k in range(n + 1)]
    product_ok = all(a * q == 1 for a, q in zip(seq.a_exact, norm_sq))
    results.append({"check": "kernel/a-times-norm-is-one", "pass": product_ok})
    results.append({"check": "kernel/a0-is-one", "pass": seq.a_exact[0] == 1})
    decreasing = all(seq.a_exact[k + 1] < seq.a_exact[k] for k in range(n))
    positive = all(q > 0 for q in seq.a_exact)
    results.append({"check": "kernel/positive-strictly-decreasing",
                    "pass": decreasing and positive})
    if dim == 2:
        results.append({"check": "kernel/dirichlet-binomial-identity",
                        "pass": disc_kernel.dirichlet_coeff_check(norm_sq), "checked": n + 1})

    sweep = disc_kernel.float_coeff_sequence(dim, 10_000)
    ratio = sweep * (np.arange(10_001, dtype=np.float64) + 1.0) ** ((dim - 1) / 2.0)
    window = ratio[100:]
    lo, hi = float(window.min()), float(window.max())
    spread = (hi - lo) / lo
    results.append({"check": "kernel/normalized-ratio-envelope",
                    "pass": spread < 0.05, "low": lo, "high": hi,
                    "relative_spread": spread})

    # the partial sums read prefixes of the same sweep. D4: by integral
    # comparison the tail past N = 1000 is at most 2 a_N (N + 1) where
    # a_n (n+1)^(3/2) is nonincreasing, as the sweep must show. D2: the sum
    # diverges like 2 sqrt(N / pi), so it grows by sqrt(2) from N = 5000 to 10^4.
    if dim == 4:
        partial = float(np.sum(sweep[:1001]))
        tail = 2.0 * (float(sweep[1000]) * 1001.0 ** 1.5) / math.sqrt(1001.0)
        step = float(np.max(np.diff(ratio)))
        results.append({"check": "kernel/partial-sum-converging",
                        "pass": tail < 0.1 and step <= 0.0, "partial": partial,
                        "tail_estimate": tail, "max_normalized_step": step})
    else:
        big = float(np.sum(sweep))
        growth = big / float(np.sum(sweep[:5001]))
        results.append({"check": "kernel/partial-sum-diverging-sqrt",
                        "pass": abs(growth - math.sqrt(2.0)) < 0.02,
                        "partial_1e4": big, "doubling_ratio": growth})

    tables = {"kernel": (["n", "a_exact", "a_float", "a_times_power"], seq.csv_rows)}
    return {"dim": dim, "n": n}, results, tables


# ---------------------------------------------------------------------------
# cantor-fourier


def cantor_fourier(max_n: int = 256, eps: float = 1e-10, level: int = 14,
                   sweep_pow: int = 17):
    """The Cantor Fourier table by the recursion against the IFS oracle, and
    the weighted partial sums S(2^10), ..., S(2^sweep_pow)."""
    # at max-n 0 every row would compare sigma_hat(0) = 1 alone
    _require(max_n >= 1, "max-n must be >= 1")
    _require_ifs_level(level)
    _require(10 <= sweep_pow <= 22, "sweep-pow must be in [10, 22]")

    rec = cantor.fourier_table_recursion(max_n, eps)
    ifs = cantor.fourier_table_ifs(max_n, level)
    results = []

    results.append({"check": "cantor/coeff-at-zero-is-one",
                    "pass": abs(rec[0] - 1.0) == 0.0 and abs(ifs[0] - 1.0) < 1e-15})
    # sigma_hat(-n) = conj(sigma_hat(n)), so a table within its tolerance of
    # sigma_hat has a symmetry defect of at most twice that tolerance
    sym = [(t.symmetry_defect(), t.tolerance) for t in (rec, ifs)]
    results.append({"check": "cantor/conjugate-symmetry",
                    "pass": all(defect <= 2 * tol for defect, tol in sym),
                    "defect": max(defect for defect, _ in sym)})
    results.append({"check": "cantor/modulus-at-most-one",
                    "pass": rec.max_abs() <= 1.0 + eps and ifs.max_abs() <= 1.0 + 1e-12})

    diff = max(abs(rec[k] - ifs[k]) for k in range(-max_n, max_n + 1))
    results.append({"check": "cantor/recursion-vs-ifs-oracle",
                    "pass": diff <= 1e-6, "max_abs_diff": diff,
                    "level": level})

    tri_dev = max(abs(rec[3 * k] - rec[k]) for k in range(max_n // 3 + 1))
    results.append({"check": "cantor/self-similarity-at-triples",
                    "pass": tri_dev <= 2 * eps, "defect": tri_dev})

    powers = list(range(10, sweep_pow + 1))
    partials = cantor.weighted_fourier_partials([2 ** p for p in powers], eps=1e-9)
    values = [partials[2 ** p] for p in powers]
    increases = [(b - a) / a for a, b in zip(values, values[1:])]
    last_noisy = max((p for p, inc in zip(powers[1:], increases)
                      if inc >= DOUBLING_RATE_TOL), default=None)
    results.append({
        "check": "cantor/weighted-sum-nondecreasing",
        "pass": all(b >= a for a, b in zip(values, values[1:])),
        "partial_sums": {f"2^{p}": v for p, v in zip(powers, values)},
        "per_doubling_increase": {f"2^{p}": inc for p, inc in zip(powers[1:], increases)},
        "last_power_at_or_above_one_percent": last_noisy,
    })

    config = {"max_n": max_n, "eps": eps, "level": level, "sweep_pow": sweep_pow}
    return config, results, {"fourier": (["n", "re", "im", "abs"], rec.csv_rows)}


# ---------------------------------------------------------------------------
# cantor-energy


def cantor_energy(levels: tuple[int, ...] = (10, 12)):
    """The proven Riesz 1/2-energy bracket at each level, its monotonicity
    across levels, and the shrinking support cover."""
    _require(len(levels) >= 1, "need at least one level")
    levels = sorted(set(levels))
    estimates = [cantor.riesz_energy(lv) for lv in levels]
    results = []
    for est in estimates:
        results.append({"check": f"energy/lower-below-upper-L{est.level}",
                        "pass": est.lower <= est.upper,
                        "lower": est.lower, "upper": est.upper,
                        "pair_sum": est.pair_sum})
    lowers = [e.lower for e in estimates]
    uppers = [e.upper for e in estimates]
    results.append({"check": "energy/lower-nondecreasing",
                    "pass": all(b >= a for a, b in zip(lowers, lowers[1:]))})
    results.append({"check": "energy/upper-nonincreasing",
                    "pass": all(b <= a for a, b in zip(uppers, uppers[1:]))})
    results.append({"check": "energy/upper-finite",
                    "pass": all(math.isfinite(u) for u in uppers)})
    if len(estimates) >= 2:
        results.append({"check": "energy/consecutive-gaps-recorded", "pass": True,
                        "relative_gap_lower": abs(lowers[-1] - lowers[-2]) / lowers[-1],
                        "relative_gap_upper": abs(uppers[-1] - uppers[-2]) / uppers[-1]})
    zero = cantor.support_measure_zero(max(levels))
    results.append({"check": "energy/support-cover-shrinks",
                    "pass": zero < 1.0, "cover_measure": zero})
    return {"levels": levels}, results, {}


# ---------------------------------------------------------------------------
# moments


def moments(dim: int = 4, alpha: Optional[tuple[int, ...]] = None,
            count: Optional[int] = None, samples: int = 100_000, seed: int = DEFAULT_SEED,
            max_exp: Optional[int] = None):
    """Closed-form moments against Monte Carlo: one multi-index `alpha`
    within 4 sigma, or at least 95% of a seeded batch of `count` (100 unless
    given) multi-indices with entries up to max_exp (6 unless given). count
    and max_exp apply to the batch only and are refused with alpha."""
    _require_dim(dim)
    _require_seed(seed)
    variant = f"D{dim}"
    results = []

    if alpha is not None:
        _require_unset("a batch without alpha", count=count, max_exp=max_exp)
        rep = henkin.mc_moment(variant, alpha, samples, seed)
        results.append({
            "check": "moments/single-alpha-within-4-sigma",
            "pass": rep.within_4_sigma,
            "alpha": list(rep.alpha),
            "closed_form": {"re": rep.closed_form.real, "im": rep.closed_form.imag},
            "closed_form_exact": rep.closed_form_exact,
            "mc_estimate": {"re": rep.mc_estimate.real, "im": rep.mc_estimate.imag},
            "mc_stderr": rep.mc_stderr,
        })
        reports_list = [rep]
        config = {"dim": dim, "alpha": list(alpha), "count": 1,
                  "samples": samples, "seed": seed}
    else:
        count = 100 if count is None else count
        max_exp = 6 if max_exp is None else max_exp
        reports_list = henkin.mc_moment_batch(variant, count, samples, seed, max_exp=max_exp)
        good = sum(1 for r in reports_list if r.within_4_sigma)
        results.append({
            "check": "moments/batch-4-sigma-agreement",
            "pass": good >= math.ceil(0.95 * len(reports_list)),
            "count": len(reports_list),
            "within_4_sigma": good,
        })
        config = {"dim": dim, "alpha": None, "count": count,
                  "samples": samples, "seed": seed, "max_exp": max_exp}

    def rows():
        return [[
            "(" + " ".join(str(a) for a in rep.alpha) + ")",
            rep.closed_form_exact if rep.closed_form_exact is not None
            else f"{rep.closed_form.real!r}{rep.closed_form.imag:+}j",
            rep.mc_estimate.real, rep.mc_estimate.imag, rep.mc_stderr,
        ] for rep in reports_list]

    tables = {"moments": (["alpha", "closed_form", "mc_re", "mc_im", "mc_stderr"], rows)}
    return config, results, tables


# ---------------------------------------------------------------------------
# henkin-check


def henkin_check(dim: int = 4, maxdeg: Optional[int] = None, eps: Optional[float] = None,
                 level: Optional[int] = None, tol: Optional[float] = None):
    """The representing identity on every monomial of degree <= maxdeg:
    exactly for D4 (maxdeg 24 unless given), and for D2 (maxdeg 100 unless
    given) between the recursion-built witness and IFS-oracle moments, to
    `tol`. eps (1e-12), level (14) and tol (1e-10) apply to D2 only and are
    refused with dim 4."""
    _require_dim(dim)
    results = []
    if dim == 4:
        _require_unset("dim 2", eps=eps, level=level, tol=tol)
        maxdeg = 24 if maxdeg is None else maxdeg
        henkin._identity_tol("D4", maxdeg, None)  # before the witness reads maxdeg
        g = henkin.build_witness("D4", max(1, maxdeg // 4))
        res = henkin.henkin_identity_check("D4", maxdeg, g)
        results.append({"check": "henkin/d4-exact-identity", "pass": res.passed,
                        "checked": res.checked,
                        "failures": [list(f) for f in res.failures]})
        return {"dim": 4, "maxdeg": maxdeg}, results, {}

    maxdeg = 100 if maxdeg is None else maxdeg
    eps = 1e-12 if eps is None else eps
    level = 14 if level is None else level
    _require_ifs_level(level)
    tol = henkin._identity_tol("D2", maxdeg, tol)
    rec_table = cantor.fourier_table_recursion(maxdeg, eps)
    g = henkin.build_witness("D2", maxdeg, rec_table)
    oracle_table = cantor.fourier_table_ifs(maxdeg, level)
    res = henkin.henkin_identity_check("D2", maxdeg, g, table=oracle_table, tol=tol)
    results.append({"check": "henkin/d2-two-route-identity", "pass": res.passed,
                    "checked": res.checked, "max_dev": res.max_dev, "tol": tol,
                    "failures": [list(f) for f in res.failures]})
    config = {"dim": 2, "maxdeg": maxdeg, "eps": eps, "level": level, "tol": tol}
    return config, results, {}


# ---------------------------------------------------------------------------
# witness


def witness(dim: int = 4, n: Optional[int] = None, eps: Optional[float] = None,
            level: Optional[int] = None, seed: Optional[int] = None):
    """The diagonal witness g truncated at n (12 for D4, 100 for D2 unless
    given) and its certificates: for D4 the moments it reproduces and the
    failure of the classical Henkin property on a sample drawn from seed
    (DEFAULT_SEED unless given), for D2 its norm by two routes; for both the
    bound |integral(phi dmu)| <= ||phi|| ||g|| at phi = g, where it is an
    equality. eps (1e-12) and level (14) apply to D2 only and are refused
    with dim 4; seed applies to D4 only and is refused with dim 2."""
    _require_dim(dim)
    results = []
    if dim == 4:
        _require_unset("dim 2", eps=eps, level=level)
        seed = DEFAULT_SEED if seed is None else seed
        _require_seed(seed)
        n = 12 if n is None else n
        g = henkin.build_witness("D4", n)
        results.append({"check": "witness/d4-first-coefficients",
                        "pass": g.diag[0] == 1
                        and (n < 1 or g.diag[1] == Fraction(3, 2))})
        res = henkin.henkin_identity_check("D4", min(4 * n, 12), g)
        results.append({"check": "witness/d4-reproduces-moments",
                        "pass": res.passed, "checked": res.checked})
        nh = henkin.non_henkin_witness(seed=seed)
        results.append({"check": "witness/d4-integrals-stay-one",
                        "pass": nh.integrals_all_one, "n_max": nh.n_max})
        results.append({"check": "witness/d4-interior-decay",
                        "pass": nh.sup_ball_ok and nh.sampled_max_base_abs <= nh.max_base_abs
                        and nh.max_fn_final < nh.threshold,
                        "max_base_abs": nh.max_base_abs,
                        "sampled_max_base_abs": nh.sampled_max_base_abs,
                        "sup_ball_abs": nh.sup_ball_abs,
                        "n_below_threshold": nh.n_below_threshold,
                        "max_fn_final": nh.max_fn_final,
                        "origin_value_final": nh.origin_value_final})
        config = {"dim": 4, "n": n, "seed": seed}
    else:
        _require_unset("dim 4", seed=seed)
        n = 100 if n is None else n
        eps = 1e-12 if eps is None else eps
        level = 14 if level is None else level
        _require_ifs_level(level)
        rec_table = cantor.fourier_table_recursion(n, eps)
        g = henkin.build_witness("D2", n, rec_table)
        oracle_table = cantor.fourier_table_ifs(n, level)
        other = henkin.build_witness("D2", n, oracle_table).norm_sq
        results.append({"check": "witness/d2-norm-two-routes",
                        "pass": abs(g.norm_sq - other) <= 1e-8,
                        "norm_sq": g.norm_sq, "norm_sq_oracle": other})
        # a_k <= (k + 1)^(-1/2), with equality at k = 0, so the weighted sum
        # S(n) = sum_k |sigma_hat(k)|^2 (k + 1)^(-1/2) bounds ||g||^2
        bound = cantor.weighted_fourier_sum(n)
        results.append({"check": "witness/d2-norm-below-weighted-sum",
                        "pass": g.norm_sq <= bound + 1e-12,
                        "norm_sq": g.norm_sq, "bound": bound})
        config = {"dim": 2, "n": n, "eps": eps, "level": level}
    fb = henkin.extremal_bound_check(g)
    results.append({"check": f"witness/d{dim}-functional-bound", "pass": fb.passed,
                    "ratio": fb.ratio, "route_gap": fb.route_gap, "tolerance": fb.tolerance})
    results.append({"check": "witness/serialized", "pass": True, "witness": g.to_json()})
    return config, results, {}


# ---------------------------------------------------------------------------
# peak-check


def peak_check(samples: int = 10_000, seed: int = DEFAULT_SEED, delta: float = 1e-2):
    """f = (1 + r)/2 equals 1 on the D4 support and |f| < 1 on sampled
    closed-ball points farther than delta from it."""
    _require_seed(seed)
    rep = henkin.peak_check(samples, seed, delta)
    results = [
        {"check": "peak/equals-one-on-support", "pass": rep.max_peak_dev <= henkin.PEAK_TOL,
         "max_peak_dev": rep.max_peak_dev},
        {"check": "peak/support-on-sphere", "pass": rep.support_dev <= henkin.PEAK_TOL,
         "support_dev": rep.support_dev},
        {"check": "peak/strictly-inside-off-support", "pass": rep.all_strictly_inside,
         **rep.margin_json(), "kept": rep.kept, "rejected": rep.rejected},
    ]
    return {"samples": samples, "seed": seed, "delta": delta}, results, {}


# ---------------------------------------------------------------------------
# compression


def compression_norms(dim: int = 2, sections: tuple[int, ...] = (1, 2, 4, 8)):
    """Finite-section norms of M_r: nondecreasing in the section, equal to
    the largest diagonal weight, above the multiplier norm ||r||, and equal
    to the bilinear form at the pair of unit vectors that attains it."""
    _require_dim(dim)
    _require(len(sections) >= 1, "need at least one section size")
    # one range for both dims: mult_matrix's size budget ends d = 4 at 12, d = 2 later
    _require(max(sections) <= 12, "sections must be <= 12")
    sections = sorted(set(sections))
    phi = compression.r_polynomial(dim)
    M = compression.mult_matrix(phi, sections[-1])
    sigmas = [compression.top_singular_value(M.section(N)) for N in sections]
    results = []

    results.append({"check": "compression/nondecreasing-in-section",
                    "pass": all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:])),
                    "sections": sections, "sigma_max": sigmas})

    expected = max(compression.diagonal_shift_weights(dim, sections[-1]))
    dev = max(abs(s - expected) for s in sigmas if s > 0)
    results.append({"check": "compression/matches-diagonal-weight",
                    "pass": all(abs(s - expected) <= 1e-9 for s in sigmas),
                    "expected": expected, "max_dev": dev})

    floor = math.sqrt(norms.r_power_norm_sq(dim, 1))  # ||r|| = sqrt(d^d / d!)
    results.append({"check": "compression/exceeds-multiplier-floor",
                    "pass": all(s > floor - 1e-9 for s in sigmas), "floor": floor})

    # |<M v, w>| <= sigma ||v|| ||w||, with equality at v = e_0, the constant
    # monomial, and w = M e_0 / ||M e_0||: M e_0 is r in the normalized
    # basis, so both sides are ||r||, the largest diagonal weight
    Mv = M.entries.column(0)
    w = Mv / np.linalg.norm(Mv)
    form = float(abs(np.vdot(w, Mv)))
    bound = sigmas[-1] * float(np.linalg.norm(w))  # sections are sorted: M's top singular value
    gap = abs(form - bound)
    results.append({"check": "compression/bilinear-bound", "pass": gap <= 1e-9,
                    "ratio": form / bound, "route_gap": gap, "tolerance": 1e-9})
    return {"dim": dim, "sections": sections}, results, {}


# ---------------------------------------------------------------------------
# the command table and `daverify all`


COMMANDS = {
    "verify-norms": verify_norms,
    "verify-isometry": verify_isometry,
    "kernel-table": kernel_table,
    "cantor-fourier": cantor_fourier,
    "cantor-energy": cantor_energy,
    "moments": moments,
    "henkin-check": henkin_check,
    "witness": witness,
    "peak-check": peak_check,
    "compression": compression_norms,
}

# The stages of `daverify all`, in order: a command and the parameters the
# stage pins. Every other parameter keeps its default. A stage that draws
# pins seed to DEFAULT_SEED, which `all --seed` replaces.
PLAN: tuple[tuple[str, dict], ...] = (
    ("verify-norms", {}),
    ("verify-isometry", {"seed": DEFAULT_SEED}),
    ("kernel-table", {"dim": 2}),
    ("kernel-table", {"dim": 4}),
    ("cantor-fourier", {}),
    ("cantor-energy", {}),
    ("moments", {"dim": 4, "seed": DEFAULT_SEED}),
    ("moments", {"dim": 2, "seed": DEFAULT_SEED}),
    ("henkin-check", {"dim": 4}),
    ("henkin-check", {"dim": 2}),
    ("witness", {"dim": 4, "seed": DEFAULT_SEED}),
    ("witness", {"dim": 2}),
    ("peak-check", {"samples": 100_000, "seed": DEFAULT_SEED}),
    ("compression", {"dim": 2}),
    ("compression", {"dim": 4}),
)
