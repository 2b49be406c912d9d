"""Command-line verification driver.

Each subcommand runs a family of checks, writes a deterministic JSON report
(byte-identical for identical configuration), prints a one-line summary with
wall-clock timing to stdout, and exits 0 when every check passed, 1 when any
failed, 2 on invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import cantor, compression, disc_kernel, henkin, norms, reports
from .exact import Polynomial, QComplex, format_rational, multi_indices

DEFAULT_SEED = 20240817
OUTPUT_DIR_ENV = "DAVERIFY_OUT"


class ConfigError(ValueError):
    """Invalid configuration; mapped to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation."""

    command: str
    dim: Optional[int] = None
    dims: tuple[int, ...] = (1, 2, 3, 4)
    maxdeg: Optional[int] = None
    count: int = 100
    n: Optional[int] = None
    max_n: int = 256
    eps: float = 1e-10
    level: int = 14
    placement: str = "midpoint"
    levels: tuple[int, ...] = (10, 12)
    alpha: Optional[tuple[int, ...]] = None
    samples: int = 100_000
    seed: int = DEFAULT_SEED
    trials: int = 100
    delta: float = 1e-2
    sections: tuple[int, ...] = (1, 2, 4, 8)
    sweep_pow: int = 17
    tol: float = 1e-10
    max_exp: int = 6
    output: Optional[str] = None
    fmt: str = "json"


# commands that have a tabular CSV rendering
_CSV_COMMANDS = {"kernel-table", "cantor-fourier", "moments"}


def _resolve_output(cfg: RunConfig) -> Path:
    name = cfg.output or f"{cfg.command}-report.json"
    path = Path(name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _require_ifs_level(level: int) -> None:
    _require(1 <= level <= cantor.MAX_IFS_LEVEL,
             f"level must be in [1, {cantor.MAX_IFS_LEVEL}]")


# ---------------------------------------------------------------------------
# verify-norms


def _norm_oracle_counts(d: int, m: int) -> dict[tuple[int, ...], int]:
    """Multiplicities of monomials in <z, w>^m by direct enumeration of the
    d^m coordinate assignments. Independent of any factorial formula."""
    import itertools

    counts: dict[tuple[int, ...], int] = {}
    for assignment in itertools.product(range(d), repeat=m):
        content = [0] * d
        for pos in assignment:
            content[pos] += 1
        key = tuple(content)
        counts[key] = counts.get(key, 0) + 1
    return counts


def cmd_verify_norms(cfg: RunConfig):
    maxdeg = cfg.maxdeg if cfg.maxdeg is not None else 8
    _require(0 <= maxdeg <= 10, "maxdeg must be in [0, 10] for the enumeration oracle")
    _require(all(1 <= d <= 4 for d in cfg.dims), "dims must lie in 1..4")
    results = []
    for d in sorted(set(cfg.dims)):
        bad = 0
        checked = 0
        for m in range(maxdeg + 1):
            counts = _norm_oracle_counts(d, m)
            for alpha, mult in counts.items():
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
    config = {"maxdeg": maxdeg, "dims": sorted(set(cfg.dims))}
    return config, results, {}


# ---------------------------------------------------------------------------
# verify-isometry


def cmd_verify_isometry(cfg: RunConfig):
    maxdeg = cfg.maxdeg if cfg.maxdeg is not None else 30
    _require(cfg.count >= 1, "count must be >= 1")
    _require(maxdeg >= 0, "maxdeg must be >= 0")
    rng = np.random.default_rng(cfg.seed)
    results = []
    for d in (2, 4):
        seq = disc_kernel.build_kernel_sequence(d, maxdeg)
        bad = 0
        for _ in range(cfg.count):
            deg = int(rng.integers(0, maxdeg + 1))
            coeffs = [
                QComplex(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
                         Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))))
                for _ in range(deg + 1)
            ]
            rep = norms.isometry_check(coeffs, d, a_seq=seq)
            if not rep.equal:
                bad += 1
        results.append({"check": f"isometry/random-exact-d{d}", "pass": bad == 0,
                        "trials": cfg.count, "failures": bad})
        one = norms.isometry_check([1], d)
        lin = norms.isometry_check([0, 1], d)
        results.append({
            "check": f"isometry/examples-d{d}",
            "pass": one.equal and one.disc_norm_sq == 1
            and lin.equal and lin.disc_norm_sq == norms.r_power_norm_sq(d, 1),
        })
    config = {"count": cfg.count, "maxdeg": maxdeg, "seed": cfg.seed}
    return config, results, {}


# ---------------------------------------------------------------------------
# kernel-table


def cmd_kernel_table(cfg: RunConfig):
    d = cfg.dim if cfg.dim is not None else 2
    _require(d in (2, 4), "dim must be 2 or 4")
    N = cfg.n if cfg.n is not None else 200
    _require(0 <= N <= 5000, "n must be in [0, 5000] for the exact table")
    seq = disc_kernel.build_kernel_sequence(d, N)
    results = []

    product_ok = all(seq.a_exact[k] * norms.r_power_norm_sq(d, k) == 1
                     for k in range(N + 1))
    results.append({"check": "kernel/a-times-norm-is-one", "pass": product_ok})
    results.append({"check": "kernel/a0-is-one", "pass": seq.a_exact[0] == 1})
    decreasing = all(seq.a_exact[k + 1] < seq.a_exact[k] for k in range(N))
    positive = all(q > 0 for q in seq.a_exact)
    results.append({"check": "kernel/positive-strictly-decreasing",
                    "pass": decreasing and positive})
    if d == 2:
        dirichlet_ok = all(disc_kernel.dirichlet_coeff_check(k) for k in range(N + 1))
        results.append({"check": "kernel/dirichlet-binomial-identity",
                        "pass": dirichlet_ok, "checked": N + 1})

    sweep = disc_kernel.float_coeff_sequence(d, 10_000)
    ratio = sweep * (np.arange(10_001, dtype=np.float64) + 1.0) ** ((d - 1) / 2.0)
    window = ratio[100:]
    lo, hi = float(window.min()), float(window.max())
    spread = (hi - lo) / lo
    results.append({"check": "kernel/normalized-ratio-envelope",
                    "pass": spread < 0.05, "low": lo, "high": hi,
                    "relative_spread": spread})

    partial = disc_kernel.sum_a_partial(d, 1000)
    if d == 4:
        results.append({"check": "kernel/partial-sum-converging",
                        "pass": partial.tail_estimate < 0.1,
                        "partial": partial.partial,
                        "tail_estimate": partial.tail_estimate})
    else:
        big = disc_kernel.sum_a_partial(2, 10_000)
        growth = big.partial / disc_kernel.sum_a_partial(2, 5_000).partial
        results.append({"check": "kernel/partial-sum-diverging-sqrt",
                        "pass": abs(growth - math.sqrt(2.0)) < 0.02,
                        "partial_1e4": big.partial, "doubling_ratio": growth})

    config = {"dim": d, "n": N}
    tables = {"kernel": (["n", "a_exact", "a_float", "a_times_power"], seq.csv_rows())}
    return config, results, tables


# ---------------------------------------------------------------------------
# cantor-fourier


def cmd_cantor_fourier(cfg: RunConfig):
    _require(cfg.max_n >= 1, "max-n must be >= 1")
    _require(cfg.eps > 0, "eps must be positive")
    _require_ifs_level(cfg.level)
    _require(cfg.placement in ("midpoint", "left"), "placement must be midpoint or left")
    _require(10 <= cfg.sweep_pow <= 22, "sweep-pow must be in [10, 22]")

    rec = cantor.fourier_table_recursion(cfg.max_n, cfg.eps)
    ifs = cantor.fourier_table_ifs(cfg.max_n, cfg.level, cfg.placement)
    results = []

    results.append({"check": "cantor/coeff-at-zero-is-one",
                    "pass": abs(rec[0] - 1.0) == 0.0 and abs(ifs[0] - 1.0) < 1e-15})
    sym = max(rec.symmetry_defect(), ifs.symmetry_defect())
    results.append({"check": "cantor/conjugate-symmetry",
                    "pass": sym <= 2 * cfg.eps, "defect": sym})
    results.append({"check": "cantor/modulus-at-most-one",
                    "pass": rec.max_abs() <= 1.0 + cfg.eps and ifs.max_abs() <= 1.0 + 1e-12})

    diff = max(abs(rec[n] - ifs[n]) for n in range(-cfg.max_n, cfg.max_n + 1))
    results.append({"check": "cantor/recursion-vs-ifs-oracle",
                    "pass": diff <= 1e-6, "max_abs_diff": diff,
                    "level": cfg.level, "placement": cfg.placement})

    tri_dev = max(abs(rec[3 * n] - rec[n]) for n in range(cfg.max_n // 3 + 1))
    results.append({"check": "cantor/self-similarity-at-triples",
                    "pass": tri_dev <= 2 * cfg.eps, "defect": tri_dev})

    powers = list(range(10, cfg.sweep_pow + 1))
    partials = cantor.weighted_fourier_partials([2 ** p for p in powers], eps=1e-9)
    values = [partials[2 ** p] for p in powers]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    increases = [(values[i + 1] - values[i]) / values[i] for i in range(len(values) - 1)]
    first_below = None
    for i, inc in enumerate(increases):
        if inc < 0.01:
            first_below = powers[i + 1]
            break
    results.append({
        "check": "cantor/weighted-sum-nondecreasing",
        "pass": nondecreasing,
        "partial_sums": {f"2^{p}": v for p, v in zip(powers, values)},
        "per_doubling_increase": {f"2^{powers[i + 1]}": increases[i]
                                  for i in range(len(increases))},
        "first_power_below_one_percent": first_below,
    })

    config = {"max_n": cfg.max_n, "eps": cfg.eps, "level": cfg.level,
              "placement": cfg.placement, "sweep_pow": cfg.sweep_pow}
    tables = {"fourier": (["n", "re", "im", "abs"], rec.csv_rows())}
    return config, results, tables


# ---------------------------------------------------------------------------
# cantor-energy


def cmd_cantor_energy(cfg: RunConfig):
    _require(len(cfg.levels) >= 1, "need at least one level")
    _require(all(1 <= lv <= cantor.MAX_ENERGY_LEVEL for lv in cfg.levels),
             f"levels must lie in [1, {cantor.MAX_ENERGY_LEVEL}]")
    _require(cfg.placement in ("midpoint", "left"), "placement must be midpoint or left")
    levels = sorted(set(cfg.levels))
    estimates = [cantor.riesz_energy(lv, cfg.placement) for lv in levels]
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
        gap_lower = abs(lowers[-1] - lowers[-2]) / lowers[-1]
        gap_upper = abs(uppers[-1] - uppers[-2]) / uppers[-1]
        results.append({"check": "energy/consecutive-gaps-recorded", "pass": True,
                        "relative_gap_lower": gap_lower,
                        "relative_gap_upper": gap_upper})
    zero = cantor.support_measure_zero(max(levels))
    results.append({"check": "energy/support-cover-shrinks",
                    "pass": zero < 1.0, "cover_measure": zero})
    config = {"levels": levels, "placement": cfg.placement}
    return config, results, {}


# ---------------------------------------------------------------------------
# moments


def cmd_moments(cfg: RunConfig):
    d = cfg.dim if cfg.dim is not None else 4
    _require(d in (2, 4), "dim must be 2 or 4")
    _require(cfg.samples >= 1000, "samples must be >= 1000")
    variant = "D4" if d == 4 else "D2"
    results = []
    rows = []

    if cfg.alpha is not None:
        _require(len(cfg.alpha) == d, f"alpha must have {d} entries for dim {d}")
        rep = henkin.mc_moment(variant, cfg.alpha, cfg.samples, cfg.seed)
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
    else:
        _require(cfg.count >= 1, "count must be >= 1")
        reports_list = henkin.mc_moment_batch(variant, cfg.count, cfg.samples,
                                              cfg.seed, max_exp=cfg.max_exp)
        good = sum(1 for r in reports_list if r.within_4_sigma)
        results.append({
            "check": "moments/batch-4-sigma-agreement",
            "pass": good >= math.ceil(0.95 * len(reports_list)),
            "count": len(reports_list),
            "within_4_sigma": good,
        })

    for rep in reports_list:
        rows.append([
            "(" + " ".join(str(a) for a in rep.alpha) + ")",
            rep.closed_form_exact if rep.closed_form_exact is not None
            else f"{rep.closed_form.real!r}{rep.closed_form.imag:+}j",
            rep.mc_estimate.real, rep.mc_estimate.imag, rep.mc_stderr,
        ])
    config = {"dim": d, "alpha": list(cfg.alpha) if cfg.alpha else None,
              "count": cfg.count if cfg.alpha is None else 1,
              "samples": cfg.samples, "seed": cfg.seed, "max_exp": cfg.max_exp}
    tables = {"moments": (["alpha", "closed_form", "mc_re", "mc_im", "mc_stderr"], rows)}
    return config, results, tables


# ---------------------------------------------------------------------------
# henkin-check


def cmd_henkin_check(cfg: RunConfig):
    d = cfg.dim if cfg.dim is not None else 4
    _require(d in (2, 4), "dim must be 2 or 4")
    results = []
    if d == 4:
        maxdeg = cfg.maxdeg if cfg.maxdeg is not None else 24
        _require(0 <= maxdeg <= 40, "maxdeg must be in [0, 40]")
        witness = henkin.build_witness("D4", max(1, maxdeg // 4))
        res = henkin.henkin_identity_check("D4", maxdeg, witness)
        results.append({"check": "henkin/d4-exact-identity", "pass": res.passed,
                        "checked": res.checked,
                        "failures": [list(f) for f in res.failures]})
        config = {"dim": 4, "maxdeg": maxdeg}
    else:
        maxdeg = cfg.maxdeg if cfg.maxdeg is not None else 100
        _require(0 <= maxdeg <= 400, "maxdeg must be in [0, 400]")
        _require(cfg.eps > 0, "eps must be positive")
        _require_ifs_level(cfg.level)
        rec_table = cantor.fourier_table_recursion(maxdeg, cfg.eps)
        oracle_table = cantor.fourier_table_ifs(maxdeg, cfg.level, "midpoint")
        witness = henkin.build_witness("D2", maxdeg, rec_table)
        res = henkin.henkin_identity_check("D2", maxdeg, witness,
                                           table=oracle_table, tol=cfg.tol)
        results.append({"check": "henkin/d2-two-route-identity", "pass": res.passed,
                        "checked": res.checked, "max_dev": res.max_dev,
                        "tol": cfg.tol,
                        "failures": [list(f) for f in res.failures]})
        config = {"dim": 2, "maxdeg": maxdeg, "eps": cfg.eps,
                  "level": cfg.level, "tol": cfg.tol}
    return config, results, {}


# ---------------------------------------------------------------------------
# witness


def cmd_witness(cfg: RunConfig):
    d = cfg.dim if cfg.dim is not None else 4
    _require(d in (2, 4), "dim must be 2 or 4")
    results = []
    if d == 4:
        N = cfg.n if cfg.n is not None else 12
        _require(0 <= N <= 200, "n must be in [0, 200]")
        witness = henkin.build_witness("D4", N)
        results.append({"check": "witness/d4-first-coefficients",
                        "pass": witness.diag_exact[0] == 1
                        and (N < 1 or witness.diag_exact[1] == Fraction(3, 2))})
        res = henkin.henkin_identity_check("D4", min(4 * N, 12), witness)
        results.append({"check": "witness/d4-reproduces-moments",
                        "pass": res.passed, "checked": res.checked})
        nh = henkin.non_henkin_witness(n_max=50, grid_points=1000,
                                       grid_radius=0.9, seed=cfg.seed)
        results.append({"check": "witness/d4-integrals-stay-one",
                        "pass": nh.integrals_all_one, "n_max": nh.n_max})
        results.append({"check": "witness/d4-interior-decay",
                        "pass": nh.sup_ball_ok and nh.max_fn_final < nh.threshold,
                        "max_base_abs": nh.max_base_abs,
                        "n_below_threshold": nh.n_below_threshold,
                        "max_fn_final": nh.max_fn_final,
                        "origin_value_final": nh.origin_value_final})
        fb = henkin.functional_bound_check(witness, cfg.trials, cfg.seed)
        results.append({"check": "witness/d4-functional-bound",
                        "pass": fb.passed, "max_ratio": fb.max_ratio})
        config = {"dim": 4, "n": N, "seed": cfg.seed, "trials": cfg.trials}
    else:
        N = cfg.n if cfg.n is not None else 100
        _require(0 <= N <= 400, "n must be in [0, 400]")
        _require(cfg.eps > 0, "eps must be positive")
        _require_ifs_level(cfg.level)
        rec_table = cantor.fourier_table_recursion(N, cfg.eps)
        witness = henkin.build_witness("D2", N, rec_table)
        oracle_table = cantor.fourier_table_ifs(N, cfg.level, "midpoint")
        seq = disc_kernel.build_kernel_sequence(2, N)
        other = sum(seq.a_float[n] * abs(oracle_table[n]) ** 2 for n in range(N + 1))
        results.append({"check": "witness/d2-norm-two-routes",
                        "pass": abs(witness.norm_sq - other) <= 1e-8,
                        "norm_sq": witness.norm_sq, "norm_sq_oracle": other})
        env = max(seq.a_float[n] * math.sqrt(n + 1.0) for n in range(N + 1))
        bound = env * cantor.weighted_fourier_sum(N)
        results.append({"check": "witness/d2-norm-below-weighted-sum",
                        "pass": witness.norm_sq <= bound + 1e-12,
                        "norm_sq": witness.norm_sq, "bound": bound})
        fb = henkin.functional_bound_check(witness, cfg.trials, cfg.seed,
                                           table=rec_table)
        results.append({"check": "witness/d2-functional-bound",
                        "pass": fb.passed, "max_ratio": fb.max_ratio})
        config = {"dim": 2, "n": N, "eps": cfg.eps, "level": cfg.level,
                  "seed": cfg.seed, "trials": cfg.trials}
    results.append({"check": "witness/serialized", "pass": True,
                    "witness": witness.to_json()})
    return config, results, {}


# ---------------------------------------------------------------------------
# peak-check


def cmd_peak_check(cfg: RunConfig):
    _require(cfg.samples >= 1, "samples must be >= 1")
    _require(cfg.delta > 0, "delta must be positive")
    rep = henkin.peak_check(cfg.samples, cfg.seed, cfg.delta)
    results = [
        {"check": "peak/equals-one-on-support", "pass": rep.max_peak_dev <= 1e-12,
         "max_peak_dev": rep.max_peak_dev},
        {"check": "peak/support-on-sphere", "pass": rep.support_dev <= 1e-12,
         "support_dev": rep.support_dev},
        {"check": "peak/strictly-inside-off-support", "pass": rep.all_strictly_inside,
         **rep.margin_json(), "kept": rep.kept, "rejected": rep.rejected},
    ]
    config = {"samples": cfg.samples, "seed": cfg.seed, "delta": cfg.delta}
    return config, results, {}


# ---------------------------------------------------------------------------
# compression


def cmd_compression(cfg: RunConfig):
    d = cfg.dim if cfg.dim is not None else 2
    _require(d in (2, 4), "dim must be 2 or 4")
    _require(len(cfg.sections) >= 1, "need at least one section size")
    _require(all(0 <= N <= 12 for N in cfg.sections), "sections must lie in [0, 12]")
    sections = sorted(set(cfg.sections))
    phi = compression.r_polynomial(d)
    sigmas = [compression.compression_norm(phi, N) for N in sections]
    results = []

    nondecreasing = all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    results.append({"check": "compression/nondecreasing-in-section",
                    "pass": nondecreasing,
                    "sections": sections, "sigma_max": sigmas})

    weights = compression.diagonal_shift_weights(d, max(sections))
    expected = max(weights[: max(sections) + 1])
    dev = max(abs(s - expected) for s in sigmas if s > 0)
    results.append({"check": "compression/matches-diagonal-weight",
                    "pass": all(abs(s - expected) <= 1e-9 for s in sigmas),
                    "expected": expected, "max_dev": dev})

    floor = math.sqrt(2.0) if d == 2 else math.sqrt(32.0 / 3.0)
    results.append({"check": "compression/exceeds-multiplier-floor",
                    "pass": all(s >= floor - 1e-9 for s in sigmas),
                    "floor": floor})

    # |<M_phi v, w>| <= sigma_max ||v|| ||w|| on random vectors
    rng = np.random.default_rng(cfg.seed)
    M = compression.mult_matrix(phi, max(sections))
    sigma_big = sigmas[-1]  # sections are sorted, so this is M's top singular value
    bad = 0
    for _ in range(50):
        v = rng.standard_normal(M.entries.shape[1]) \
            + 1j * rng.standard_normal(M.entries.shape[1])
        w = rng.standard_normal(M.entries.shape[0]) \
            + 1j * rng.standard_normal(M.entries.shape[0])
        lhs = abs(np.vdot(w, M.entries @ v))
        rhs = sigma_big * np.linalg.norm(v) * np.linalg.norm(w) + 1e-9
        if lhs > rhs:
            bad += 1
    results.append({"check": "compression/bilinear-bound", "pass": bad == 0,
                    "trials": 50, "failures": bad})

    config = {"dim": d, "sections": sections, "seed": cfg.seed}
    return config, results, {}


# ---------------------------------------------------------------------------
# all


_SUBCOMMANDS: dict[str, Callable] = {}


def _register_subcommands():
    _SUBCOMMANDS.update({
        "verify-norms": cmd_verify_norms,
        "verify-isometry": cmd_verify_isometry,
        "kernel-table": cmd_kernel_table,
        "cantor-fourier": cmd_cantor_fourier,
        "cantor-energy": cmd_cantor_energy,
        "moments": cmd_moments,
        "henkin-check": cmd_henkin_check,
        "witness": cmd_witness,
        "peak-check": cmd_peak_check,
        "compression": cmd_compression,
    })


_register_subcommands()


def cmd_all(cfg: RunConfig):
    """Run every command at its documented defaults and aggregate."""
    plan = [
        RunConfig(command="verify-norms", seed=cfg.seed),
        RunConfig(command="verify-isometry", seed=cfg.seed),
        RunConfig(command="kernel-table", dim=2, seed=cfg.seed),
        RunConfig(command="kernel-table", dim=4, seed=cfg.seed),
        RunConfig(command="cantor-fourier", seed=cfg.seed),
        RunConfig(command="cantor-energy", seed=cfg.seed),
        RunConfig(command="moments", dim=4, seed=cfg.seed),
        RunConfig(command="moments", dim=2, seed=cfg.seed),
        RunConfig(command="henkin-check", dim=4, seed=cfg.seed),
        RunConfig(command="henkin-check", dim=2, eps=1e-12, seed=cfg.seed),
        RunConfig(command="witness", dim=4, seed=cfg.seed),
        RunConfig(command="witness", dim=2, eps=1e-12, seed=cfg.seed),
        RunConfig(command="peak-check", seed=cfg.seed),
        RunConfig(command="compression", dim=2, seed=cfg.seed),
        RunConfig(command="compression", dim=4, seed=cfg.seed),
    ]
    results = []
    config = {"seed": cfg.seed, "subcommands": []}
    for sub in plan:
        fn = _SUBCOMMANDS[sub.command]
        t0 = time.perf_counter()
        sub_config, sub_results, _tables = fn(sub)
        elapsed = time.perf_counter() - t0
        label = sub.command if sub.dim is None else f"{sub.command}[d{sub.dim}]"
        print(f"  {label}: {elapsed:.2f}s", file=sys.stdout)
        config["subcommands"].append({"command": sub.command, "config": sub_config})
        for row in sub_results:
            row = dict(row)
            row["check"] = f"{label}/{row['check']}"
            results.append(row)
    return config, results, {}


# ---------------------------------------------------------------------------
# driver


def run(cfg: RunConfig) -> int:
    """Execute one command, write its report, return the exit code."""
    if cfg.fmt not in ("json", "csv"):
        raise ConfigError("format must be json or csv")
    if cfg.fmt == "csv" and cfg.command not in _CSV_COMMANDS:
        raise ConfigError(f"command {cfg.command} has no CSV table")

    if cfg.command == "all":
        fn = cmd_all
    else:
        try:
            fn = _SUBCOMMANDS[cfg.command]
        except KeyError:
            raise ConfigError(f"unknown command {cfg.command!r}")

    t0 = time.perf_counter()
    config, results, tables = fn(cfg)
    elapsed = time.perf_counter() - t0

    report = reports.make_report(cfg.command, config, results)
    out_path = _resolve_output(cfg)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    reports.dump_report(report, out_path)

    if cfg.fmt == "csv":
        for name, (header, rows) in tables.items():
            csv_path = out_path.with_suffix(f".{name}.csv")
            reports.write_csv(csv_path, header, rows)

    status = "PASS" if report["pass"] else "FAIL"
    print(f"{cfg.command}: {status} in {elapsed:.2f}s, report at {out_path}")
    return 0 if report["pass"] else 1


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daverify",
        description="Verify sphere-measure constructions for the Drury-Arveson space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, csv_ok=False):
        p.add_argument("--output", help="report path (default <command>-report.json; "
                       f"${OUTPUT_DIR_ENV} prefixes relative paths)")
        p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "csv"] if csv_ok else ["json"],
                       help="csv additionally writes the data table")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("verify-norms", help="monomial norms against the kernel-expansion oracle")
    p.add_argument("--maxdeg", type=int, default=8)
    p.add_argument("--dims", type=_parse_int_tuple, default=(1, 2, 3, 4))
    common(p)

    p = sub.add_parser("verify-isometry", help="exact disc-to-ball isometry on random polynomials")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--maxdeg", type=int, default=30)
    common(p)

    p = sub.add_parser("kernel-table", help="weight sequence a_n with exact and float views")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=200)
    common(p, csv_ok=True)

    p = sub.add_parser("cantor-fourier", help="Cantor Fourier coefficients, two routes")
    p.add_argument("--max-n", dest="max_n", type=int, default=256)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--level", type=int, default=14)
    p.add_argument("--placement", default="midpoint", choices=["midpoint", "left"])
    p.add_argument("--sweep-pow", dest="sweep_pow", type=int, default=17)
    common(p, csv_ok=True)

    p = sub.add_parser("cantor-energy", help="proven Riesz 1/2-energy bracket on the circle")
    p.add_argument("--levels", type=_parse_int_tuple, default=(10, 12))
    p.add_argument("--placement", default="midpoint", choices=["midpoint", "left"])
    common(p)

    p = sub.add_parser("moments", help="closed-form moments against Monte Carlo")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--alpha", type=_parse_int_tuple, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--max-exp", dest="max_exp", type=int, default=6)
    common(p, csv_ok=True)

    p = sub.add_parser("henkin-check", help="the representing identity, exactly or two-route")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--maxdeg", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--level", type=int, default=14)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)

    p = sub.add_parser("witness", help="the diagonal witness g and its certificates")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--level", type=int, default=14)
    p.add_argument("--trials", type=int, default=100)
    common(p)

    p = sub.add_parser("peak-check", help="f = (1+r)/2 peaks exactly on the support")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--delta", type=float, default=1e-2)
    common(p)

    p = sub.add_parser("compression", help="finite-section multiplier norm lower bounds")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sections", type=_parse_int_tuple, default=(1, 2, 4, 8))
    common(p)

    p = sub.add_parser("all", help="every command at its defaults, one aggregate report")
    common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize its code
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
