"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every library call below goes through a module attribute (``cantor.riesz_energy``
rather than a name imported from ``daverify.cantor``), so the timing wrappers
that ``tracing.Tracer`` installs in each module namespace see the call.

The output checks test invariants that any correct implementation keeps,
never today's floats to the last digit, so a change that makes a number more
accurate is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from daverify import cantor, cli, compression, disc_kernel, henkin, norms
from daverify.exact import QComplex

Checks = list[tuple[str, bool]]

# The 59 check names of `daverify all` at the pinned defaults.
EXPECTED_VERDICT_CHECKS = tuple(
    json.loads((Path(__file__).with_name("verdict_checks.json")).read_text(encoding="utf-8"))
)


def reset_caches() -> None:
    """Empty the library's caches, as in a fresh `daverify` process."""
    norms.monomial_norm_sq.cache_clear()


# ---------------------------------------------------------------------------
# verdict-default: `daverify all --seed S`, what users run


def verdict_inputs(seed: int) -> list[str]:
    return ["all", "--seed", str(seed)]


def verdict_pass(argv: list[str], workdir: Path) -> dict:
    out = workdir / "all-report.json"
    code = cli.main(argv + ["--output", str(out)])
    return {"exit_code": code, "report": out}


def verdict_checks(out: dict) -> tuple[Checks, str]:
    raw = out["report"].read_bytes()
    report = json.loads(raw)
    names = tuple(row["check"] for row in report["results"])
    checks = [
        ("verdict/exit-code-zero", out["exit_code"] == 0),
        ("verdict/report-pass", report["pass"] is True),
        ("verdict/same-59-check-names", names == EXPECTED_VERDICT_CHECKS),
    ]
    return checks, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# exact-scaled: the exact Gaussian-rational core at scaled sizes


ISOMETRY_CALLS_PER_DIM = 50
ISOMETRY_MAX_DEGREE = 120
IDENTITY_MAXDEG = 40
IDENTITY_CHECKED = 135_751  # multi-indices in 4 variables of degree <= 40
STIRLING = ((2, 40_000), (4, 20_000))
STIRLING_LIMIT = {2: math.sqrt(math.pi), 4: (2.0 * math.pi) ** 1.5 / 2.0}
KERNEL_SEQUENCES = ((2, 5000), (4, 2000))
NON_HENKIN_N_MAX = 400


@dataclass(frozen=True)
class ExactInputs:
    isometry: tuple[tuple[int, tuple[QComplex, ...]], ...]
    grid_seed: int


def exact_inputs(seed: int) -> ExactInputs:
    """Seeded Gaussian-rational coefficient lists for `isometry_check`.

    Degrees are fixed (evenly spread up to 120) and only the coefficients
    depend on the seed, so the amount of work barely varies between seeds.
    """
    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lists = []
    for d in (2, 4):
        for i in range(ISOMETRY_CALLS_PER_DIM):
            degree = ISOMETRY_MAX_DEGREE * (i + 1) // ISOMETRY_CALLS_PER_DIM
            lists.append((d, tuple(QComplex(rational(), rational()) for _ in range(degree + 1))))
    return ExactInputs(isometry=tuple(lists), grid_seed=rng.randrange(2 ** 32))


def exact_pass(inp: ExactInputs, workdir: Path) -> dict:
    witness = henkin.build_witness("D4", IDENTITY_MAXDEG // 4)
    return {
        "identity": henkin.henkin_identity_check("D4", IDENTITY_MAXDEG, witness),
        "stirling": [(d, n, norms.stirling_ratio(d, n)) for d, n in STIRLING],
        "isometry": [norms.isometry_check(list(coeffs), d) for d, coeffs in inp.isometry],
        "non_henkin": henkin.non_henkin_witness(n_max=NON_HENKIN_N_MAX, seed=inp.grid_seed),
        "kernels": [disc_kernel.build_kernel_sequence(d, n) for d, n in KERNEL_SEQUENCES],
    }


def exact_checks(out: dict) -> tuple[Checks, str]:
    ident = out["identity"]
    checks = [("identity/passed-135751", ident.passed and ident.checked == IDENTITY_CHECKED)]
    for d, n, ratio in out["stirling"]:
        limit = STIRLING_LIMIT[d]
        checks.append((f"stirling/d{d}-n{n}-near-limit", abs(ratio - limit) <= 1e-4 * limit))
    for i, rep in enumerate(out["isometry"]):
        checks.append((f"isometry/{i}-equal", rep.equal))
    checks.append(("non-henkin/passed", out["non_henkin"].passed))
    for seq in out["kernels"]:
        # a_N * ||r^N||^2 = 1 exactly, by definition of the weights
        checks.append((f"kernel/d{seq.d}-N{seq.N}-inverse-norm",
                       len(seq.a_exact) == seq.N + 1 and seq.a_exact[0] == 1
                       and seq.a_exact[seq.N] * norms.r_power_norm_sq(seq.d, seq.N) == 1))
    return checks, ""


# ---------------------------------------------------------------------------
# float-scaled: the numpy layers at scaled sizes


WEIGHTED_SUM_POWERS = range(10, 21)
FOURIER_MAX_N = 512
IFS_LEVEL = 15
ENERGY_LEVEL = 13
# An enclosure of the true Riesz energy, from the convexity bounds at level 14
# (ROADMAP item 3); any correct estimate of the energy must overlap it.
ENERGY_BRACKET = (2.0977, 2.1036)
MC_MOMENTS = 100
MC_SAMPLES = 300_000
COMPRESSION_SECTION = 12
PEAK_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class FloatInputs:
    mc_seed_d4: int
    mc_seed_d2: int
    peak_seed: int


def float_inputs(seed: int) -> FloatInputs:
    rng = random.Random(seed)
    return FloatInputs(*(rng.randrange(2 ** 32) for _ in range(3)))


def float_pass(inp: FloatInputs, workdir: Path) -> dict:
    partials = cantor.weighted_fourier_partials([2 ** p for p in WEIGHTED_SUM_POWERS])
    recursion = cantor.fourier_table_recursion(FOURIER_MAX_N)
    ifs = cantor.fourier_table_ifs(FOURIER_MAX_N, IFS_LEVEL)
    energy = cantor.riesz_energy(ENERGY_LEVEL)
    moments = {
        "D4": henkin.mc_moment_batch("D4", MC_MOMENTS, MC_SAMPLES, inp.mc_seed_d4),
        "D2": henkin.mc_moment_batch("D2", MC_MOMENTS, MC_SAMPLES, inp.mc_seed_d2),
    }
    matrix = compression.mult_matrix(compression.r_polynomial(4), COMPRESSION_SECTION)
    sigma = compression.top_singular_value(matrix.entries)
    peak = henkin.peak_check(PEAK_SAMPLES, inp.peak_seed)
    return {"partials": partials, "recursion": recursion, "ifs": ifs, "energy": energy,
            "moments": moments, "sigma": sigma, "peak": peak}


def float_checks(out: dict) -> tuple[Checks, str]:
    sums = [out["partials"][2 ** p] for p in WEIGHTED_SUM_POWERS]
    rec, ifs = out["recursion"], out["ifs"]
    route_diff = max(abs(rec[n] - ifs[n]) for n in range(-FOURIER_MAX_N, FOURIER_MAX_N + 1))
    energy = out["energy"]
    lo, hi = ENERGY_BRACKET
    checks = [
        # every term |sigma_hat(n)|^2 / sqrt(n+1) is nonnegative
        ("cantor/weighted-partials-nondecreasing", all(b >= a for a, b in zip(sums, sums[1:]))),
        ("cantor/recursion-vs-ifs-1e-6", route_diff <= 1e-6),
        ("energy/finite-ordered-overlaps-bracket",
         math.isfinite(energy.lower) and math.isfinite(energy.upper)
         and energy.lower <= energy.upper and energy.lower <= hi and energy.upper >= lo),
    ]
    for variant, reports in out["moments"].items():
        within = sum(1 for r in reports if r.within_4_sigma)
        checks.append((f"moments/{variant}-95-of-100-within-4-sigma",
                       len(reports) == MC_MOMENTS and within >= 95))
    checks.append(("compression/sigma-is-sqrt-32-over-3",
                   abs(out["sigma"] - math.sqrt(32.0 / 3.0)) <= 1e-9))
    checks.append(("peak/passed", out["peak"].passed))
    return checks, ""


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], object]
    run: Callable[[object, Path], dict]
    check: Callable[[dict], tuple[Checks, str]]


# `check` returns the checks and a digest that must be identical across the
# passes of one seed ("" where the workload has no byte-level output).
WORKLOADS = {
    "verdict-default": Workload(verdict_inputs, verdict_pass, verdict_checks),
    "exact-scaled": Workload(exact_inputs, exact_pass, exact_checks),
    "float-scaled": Workload(float_inputs, float_pass, float_checks),
}
