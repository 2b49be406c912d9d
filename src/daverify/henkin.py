"""Measures on the unit sphere that represent evaluation-type functionals on
polynomials without being Henkin in the classical sense.

Both are one construction, `PushforwardMeasure`: Haar measure on the torus
T^(d-1) times a law of t, pushed to the sphere of C^d so that r = c z_1...z_d
pushes to e^(2 pi i t).

  D4: d = 4 and t = 0, so r = 16 z1 z2 z3 z4 = 1 on the support. Every
      monomial moment is an exact rational.

  D2: d = 2 and t ~ sigma, the Cantor measure. The free circle phase kills
      every moment off the diagonal m = n, and there r(z) = 2 z1 z2 pushes
      to e^(2 pi i t), so the diagonal moments are Cantor Fourier
      coefficients scaled by 2^(-n).

For each variant there is a diagonal witness g in H^2_d with
integral(phi dmu) = <phi(z), g> for all polynomials phi, checked exactly
(D4) or to stated tolerance through two independent Fourier routes (D2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Literal, Optional, Sequence

import numpy as np

from .cantor import _UNIT_ROUNDOFF, MAX_TABLE_N, FourierTable, fourier_table_recursion
from .disc_kernel import build_kernel_sequence
from .exact import (
    ConfigError,
    MultiIndex,
    Polynomial,
    QComplex,
    format_rational,
    multi_indices,
    validate_multi_index,
)
from .norms import SUPPORTED_DIMS, da_inner, disc_map_scale, monomial_norm_sq
from .reports import finite_or_null

Variant = Literal["D4", "D2"]

# variant name -> d of the sphere of C^d that carries the measure
_VARIANTS = {f"D{d}": d for d in SUPPORTED_DIMS}


# ---------------------------------------------------------------------------
# samplers and the measure


def _unit_phases(x: np.ndarray, out: np.ndarray) -> None:
    """exp(2 pi i x) into out for x >= 0, rounded as np.exp(2j * np.pi * x)
    rounds it: the product 2j * np.pi * x is exactly +0 + i round(2 pi x)
    there, and formed from its parts it needs no cast of x to complex."""
    out.real = 0.0
    np.multiply(x, 2.0 * np.pi, out=out.imag)
    np.exp(out, out=out)


# _BYTE_DIGITS[b] = sum_p 2 bit_p(b) 3^p: the eight base-3 digits in {0, 2}
# that the bits of b spell, the top bit the most significant digit. Built
# from Python ints: numpy temporaries at import would stay in peak memory.
_BYTE_DIGITS = np.array([sum(2 * 3 ** p for p in range(8) if b >> p & 1)
                         for b in range(256)], dtype=np.int64)


def sample_cantor_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent samples t ~ sigma, via random base-3 digit strings
    with digits in {0, 2} truncated at 64 digits.

    Digit j of a sample is bit 64 - j of one 64-bit draw, which numpy takes
    as the generator's raw output for the full range. Digits 1..32 and
    33..64 are summed, a byte at a time, into the exact integers hi and lo,
    each below 3^32 < 2^53, so t = hi 3^-32 + lo 3^-64 converts them to
    float64 exactly.
    """
    return _cantor_t(_cantor_words(count, rng))


def _cantor_words(count: int, rng: np.random.Generator) -> np.ndarray:
    """The count 64-bit draws of `sample_cantor_points`."""
    return rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)


def _cantor_t(words: np.ndarray) -> np.ndarray:
    """The Cantor samples t that `sample_cantor_points` reads from its words."""
    hi = np.zeros(len(words), dtype=np.int64)
    lo = np.zeros(len(words), dtype=np.int64)
    for shift in (56, 48, 40, 32):
        hi = hi * 3 ** 8 + _BYTE_DIGITS[(words >> shift) & 0xFF]
    for shift in (24, 16, 8, 0):
        lo = lo * 3 ** 8 + _BYTE_DIGITS[(words >> shift) & 0xFF]
    return hi * 3.0 ** -32 + lo * 3.0 ** -64


def _r_values(points: np.ndarray, c: int) -> np.ndarray:
    """r(z) = c z_1...z_d on the rows of points, multiplied left to right."""
    r = c * points[:, 0]
    for j in range(1, points.shape[1]):
        r = r * points[:, j]
    return r


def _moment_index(variant: Variant, alpha: Sequence[int]) -> MultiIndex:
    """alpha as a valid multi-index, refused unless it has the length the
    moments of `variant` take; callable before the measure and its table
    exist, and an unknown variant is left to PushforwardMeasure."""
    a = validate_multi_index(alpha)
    dim = _VARIANTS.get(variant, len(a))
    if len(a) != dim:
        raise ConfigError(f"{variant} moments take multi-indices of length {dim}")
    return a


_ZERO = Fraction(0)


@dataclass(frozen=True)
class PushforwardMeasure:
    """Haar measure on the torus T^(d-1) times a law of t in [0, 1), pushed
    to the sphere of C^d by

        (zeta, t) -> (zeta_1, ..., zeta_(d-1), conj(zeta_1...zeta_(d-1)) e^(2 pi i t)) / sqrt(d),

    so that r = c z_1...z_d = e^(2 pi i t) on the support, with c = sqrt(d^d)
    (`scale`). D4 takes t = 0 and no table; D2 takes t ~ sigma, the Cantor
    measure, whose Fourier coefficients its moments read from `table`. This
    module reads d, c and the law of t only here."""

    variant: Variant
    table: Optional[FourierTable] = None
    dim: int = field(init=False)
    scale: int = field(init=False)

    def __post_init__(self):
        dim = _VARIANTS.get(self.variant)
        if dim is None:
            raise ConfigError(f"variant must be one of {tuple(_VARIANTS)}, got {self.variant!r}")
        if dim == 2 and self.table is None:
            raise ConfigError("the D2 measure needs a FourierTable for its moments")
        if dim == 4 and self.table is not None:
            raise ConfigError("the D4 measure takes no FourierTable: t = 0 on its support")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", disc_map_scale(dim))

    def moment(self, alpha: Sequence[int]):
        """integral z^alpha dmu for alpha of length dim. The measure is invariant
        under the torus action that fixes r, so the moment is zero off the
        diagonal (k, ..., k) and c^(-k) integral(r^k dmu) on it: the exact
        Fraction c^(-k) where t = 0, and c^(-k) sigma_hat(-k) where t ~ sigma
        (a complex, 0j off the diagonal; ValueError past the table)."""
        return self._moment(_moment_index(self.variant, alpha))

    def _moment(self, a: MultiIndex):
        """`moment`'s formula, for an a already checked: a tuple of dim
        nonnegative ints."""
        k = a[0]
        if a.count(k) != self.dim:
            return _ZERO if self.table is None else 0j
        if self.table is None:
            return Fraction(1, self.scale ** k)
        return float(self.scale) ** (-k) * self.table[-k]

    def conj_r_moment(self, k: int):
        """conj(integral r^k dmu), the witness factor: Fraction(1) where t = 0,
        and table[k] = conj(sigma_hat(-k)) where t ~ sigma, whose zero
        imaginary part stays +0.0. Not derived from `moment`, so that the
        identity's moment route and inner-product route stay separate code."""
        return Fraction(1) if self.table is None else self.table[k]

    def points(self, zeta: np.ndarray, t: Optional[np.ndarray]) -> np.ndarray:
        """The map of the measure, row by row: the points
        (zeta, conj(zeta_1...zeta_(d-1)) e^(2 pi i t)) / sqrt(d) of the rows of
        zeta, unit entries of shape (n, d - 1), and of t, n values in [0, 1);
        t = 0 where t is None."""
        out = np.empty((len(zeta), self.dim), dtype=np.complex128)
        out[:, :-1] = zeta
        # from zeta's columns: an operand sharing memory with `last` rounds differently
        last = out[:, -1]
        if self.dim == 2:
            last[:] = zeta[:, 0]
        else:
            np.multiply(zeta[:, 0], zeta[:, 1], out=last)
            for j in range(2, self.dim - 1):
                last *= zeta[:, j]
        np.conjugate(last, out=last)
        if t is not None:
            # contiguous: numpy rounds a product of two strided columns differently
            phases = np.empty(len(t), dtype=np.complex128)
            _unit_phases(t, phases)
            last *= phases
        out /= math.sqrt(self.dim)
        return out

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count points on the sphere distributed according to the measure:
        the torus draws first, then (t ~ sigma only) the Cantor digits, mapped
        by `points`. The blocks of `_mc_point_blocks`, copied into one array."""
        out = np.empty((count, self.dim), dtype=np.complex128)
        start = 0
        for block in _mc_point_blocks(self, count, rng):
            out[start:start + len(block)] = block
            start += len(block)
        return out


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks

# The fewest and most points a Monte Carlo check draws, and the budget
# `_mc_measure` charges a check against: what it holds (`_batch_bytes`).
# At MAX_MC_SAMPLES a batch of 100 of the default max_exp is charged 7.5 MB
# for D4 and 37 MB for D2; MAX_MC_COUNT multi-indices that read 4000
# column powers would be charged 557 MB.
MIN_MC_SAMPLES = 1000
MAX_MC_SAMPLES = 2 * 10 ** 6
MAX_MC_BYTES = 250 * 10 ** 6
# The most moments a batch checks: each distinct one is a pass over the
# sample, 5 to 8 ms per 10^6 points on one CPU, so up to about 16 s here.
MAX_MC_COUNT = 1000

# A moment whose sampled integrand is constant has zero empirical variance,
# so the 4-sigma window degenerates; the absolute floor keeps the comparison
# meaningful there.
_MC_ABS_FLOOR = 1e-13

# Rows of a sample of the measure formed and reduced at a time, by the Monte
# Carlo batch and by peak_check (`_mc_point_blocks`): 128 KiB a complex column.
_MC_BLOCK = 2 ** 13


@dataclass(frozen=True)
class MomentReport:
    alpha: MultiIndex
    closed_form: complex
    closed_form_exact: Optional[str]
    mc_estimate: complex
    mc_stderr: float
    within_4_sigma: bool


def _mc_point_blocks(measure: PushforwardMeasure, samples: int,
                     rng: np.random.Generator) -> Iterator[np.ndarray]:
    """samples points of the measure, as blocks of at most _MC_BLOCK rows
    mapped by `points` on the calling thread: every sampled point of the
    measure is drawn here.

    The generator fills its arrays row by row. Where the torus is the only
    draw (t = 0), each block draws its own rows of it, which replays one
    full draw; otherwise the torus angles and then the Cantor words are
    drawn in full, 16 bytes a point, and mapped a block at a time. A lone
    last row joins the block before it, as in `_workers.slices`: a one-row
    block would round some complex products differently. Zero samples
    give one empty block.
    """
    k = measure.dim - 1
    x = words = None
    if measure.table is not None:
        x = rng.random((samples, k))
        words = _cantor_words(samples, rng)
    bounds = [*range(0, max(samples - 1, 1), _MC_BLOCK), samples]
    for b in map(slice, bounds, bounds[1:]):
        xb = rng.random((b.stop - b.start, k)) if x is None else x[b]
        zeta = np.empty(xb.shape, dtype=np.complex128)
        _unit_phases(xb, zeta)
        yield measure.points(zeta, None if words is None else _cantor_t(words[b]))


def _moment_sums(factors: list[np.ndarray], out: np.ndarray) -> tuple[complex, float]:
    """The sum S of v = the product of `factors` over the rows of `out`, and
    the deviation sum sum |v - S/n|^2, n = len(out). v is formed in `out`:
    the first product out of place, the rest in place, left to right. Both
    sums are einsum's, whose order is fixed and which calls no BLAS
    library."""
    if not factors:
        out.fill(1.0)
    elif len(factors) == 1:
        np.copyto(out, factors[0])
    else:
        np.multiply(factors[0], factors[1], out=out)
        for f in factors[2:]:
            out *= f
    total = complex(np.einsum("i->", out))
    out -= total / len(out)
    flat = out.view(np.float64)
    return total, float(np.einsum("i,i->", flat, flat))


def _pooled(sizes: list[int], totals: list[complex], devs: list[float],
            samples: int) -> tuple[complex, float]:
    """The mean and the deviation sum of a whole sample from its blocks' n_b,
    and S_b and dev_b of `_moment_sums`, combined in block order:
    mean = sum_b S_b / samples and dev = sum_b (dev_b + n_b |S_b/n_b - mean|^2)
    (Chan, Golub and LeVeque, "Algorithms for computing the sample
    variance", Amer. Statist. 37(3), 1983). One block gives its own sums."""
    total = totals[0]
    for block_total in totals[1:]:
        total += block_total
    est = total / samples
    dev_sum = 0.0
    for n, block_total, block_dev in zip(sizes, totals, devs):
        gap = block_total / n - est
        dev_sum += block_dev + n * (gap.real * gap.real + gap.imag * gap.imag)
    return est, dev_sum


def _mc_report(measure: PushforwardMeasure, alphas: Sequence[MultiIndex], samples: int,
               rng: np.random.Generator) -> dict[MultiIndex, MomentReport]:
    """The report of each distinct multi-index of `alphas`, all on one sample
    of `samples` points drawn from the measure with rng.

    The sample is formed and reduced a block of rows at a time
    (`_mc_point_blocks`), on the calling thread. A block's points are copied
    into one contiguous column per coordinate; each column power a
    multi-index reads is formed once for the block, and an exponent-1
    factor is the column itself. Each distinct multi-index reduces its
    product over the block to `_moment_sums`, kept as one row of numbers a
    block, and `_pooled` combines the blocks. Each estimate depends only on
    alpha and the points.
    """
    distinct = sorted(set(alphas))
    sizes, totals, devs = [], [], []
    for points in _mc_point_blocks(measure, samples, rng):
        columns = points.T.copy()
        out = np.empty(len(points), dtype=np.complex128)
        powers: dict[tuple[int, int], np.ndarray] = {}
        sizes.append(len(out))
        totals.append(np.empty(len(distinct), dtype=np.complex128))
        devs.append(np.empty(len(distinct)))
        for i, a in enumerate(distinct):
            for j, aj in enumerate(a):
                if aj > 1 and (j, aj) not in powers:
                    powers[j, aj] = columns[j] ** aj
            factors = [columns[j] if aj == 1 else powers[j, aj] for j, aj in enumerate(a) if aj]
            totals[-1][i], devs[-1][i] = _moment_sums(factors, out)

    reports = {}
    for a, block_totals, block_devs in zip(distinct, np.array(totals).T.tolist(),
                                           np.array(devs).T.tolist()):
        est, dev_sum = _pooled(sizes, block_totals, block_devs, samples)
        moment = measure.moment(a)
        closed = complex(moment)
        exact_str = format_rational(moment) if isinstance(moment, Fraction) else None
        stderr = math.sqrt(dev_sum / samples / samples)
        ok = abs(est - closed) <= max(4.0 * stderr, _MC_ABS_FLOOR)
        reports[a] = MomentReport(alpha=a, closed_form=closed, closed_form_exact=exact_str,
                                  mc_estimate=est, mc_stderr=stderr, within_4_sigma=ok)
    return reports


def _mc_measure(variant: Variant, count: int, samples: int, max_n: int,
                name: str) -> PushforwardMeasure:
    """The measure a Monte Carlo check of `count` multi-indices samples, for
    samples and a largest exponent max_n (`name` to the caller) in range,
    with `_batch_bytes` within MAX_MC_BYTES; D2 reads a table to max_n."""
    if not MIN_MC_SAMPLES <= samples <= MAX_MC_SAMPLES:
        raise ConfigError(f"samples must be in [{MIN_MC_SAMPLES}, {MAX_MC_SAMPLES}]")
    if not 0 <= max_n <= MAX_TABLE_N:
        raise ConfigError(f"{name} must be in [0, {MAX_TABLE_N}]")
    charge = _batch_bytes(variant, count, samples, max_n)
    if charge > MAX_MC_BYTES:
        raise ConfigError(f"{samples} samples of {count} multi-indices with {name} "
                          f"{max_n} are charged {charge // 10 ** 6} MB, over the "
                          f"{MAX_MC_BYTES // 10 ** 6} MB budget")
    table = fourier_table_recursion(max_n, 1e-12) if variant == "D2" else None
    return PushforwardMeasure(variant, table)


def mc_moment(variant: Variant, alpha: Sequence[int], samples: int,
              seed: int) -> MomentReport:
    """Monte Carlo estimate of one moment against its closed form.

    Requires 1000 <= samples <= MAX_MC_SAMPLES, so that the standard error
    is meaningful and the sample fits in memory, and alpha's entries at most
    MAX_TABLE_N, the longest Fourier table. The check passes when
    |estimate - closed| <= max(4 stderr, 1e-13).
    """
    a = _moment_index(variant, alpha)
    measure = _mc_measure(variant, 1, samples, max(a, default=0), "alpha entries")
    return _mc_report(measure, [a], samples, np.random.default_rng(seed))[a]


def _batch_bytes(variant: Variant, count: int, samples: int, max_exp: int) -> int:
    """The bytes that `_mc_report` holds for `count` multi-indices with
    entries up to max_exp, fixed costs such as the reports left out:
    - one block of at most _MC_BLOCK + 1 rows in complex columns, 16 bytes
      a row: the block's phases, points and point columns (3 d), the column
      powers its multi-indices read (at most count d and d (max_exp - 1))
      and one product buffer;
    - each block's sums for each multi-index, and their pooled copies, at
      most 128 bytes;
    - for D2, the torus angles and Cantor words of the whole sample, 16
      bytes a point, and the Fourier table to max_exp.
    """
    dim = _VARIANTS.get(variant, 0)
    powers = min(count * dim, dim * max(max_exp - 1, 0))
    held = 16 * min(samples, _MC_BLOCK + 1) * (3 * dim + powers + 1)
    held += 128 * count * -(-samples // _MC_BLOCK)
    return held + (16 * (samples + 2 * max_exp + 1) if variant == "D2" else 0)


def mc_moment_batch(variant: Variant, count: int, samples: int, seed: int,
                    max_exp: int = 6) -> list[MomentReport]:
    """count Monte Carlo moment checks on one shared sample batch.

    Exponents are drawn deterministically from the seeded generator; every
    tenth multi-index is forced onto the diagonal so nonzero closed forms
    are always represented. Sharing one batch keeps 100 checks at 1e5
    samples fast without changing any single check's semantics. A repeated
    multi-index shares one report. count is at most MAX_MC_COUNT, max_exp
    is bounded as alpha's entries, and the batch's arrays by MAX_MC_BYTES.
    """
    if not 1 <= count <= MAX_MC_COUNT:
        raise ConfigError(f"count must be in [1, {MAX_MC_COUNT}]")
    measure = _mc_measure(variant, count, samples, max_exp, "max_exp")
    dim = measure.dim
    rng = np.random.default_rng(seed)
    alphas: list[MultiIndex] = []
    for i in range(count):
        if i % 10 == 0:
            k = int(rng.integers(0, max_exp + 1))
            alphas.append((k,) * dim)
        else:
            alphas.append(tuple(int(x) for x in rng.integers(0, max_exp + 1, size=dim)))
    by_alpha = _mc_report(measure, alphas, samples, rng)
    return [by_alpha[a] for a in alphas]


# ---------------------------------------------------------------------------
# the diagonal witness and the Henkin-type identity


@dataclass(frozen=True)
class HenkinWitness:
    """The witness g = sum_k g_k (z_1...z_d)^k of `measure` truncated at N, with
    g_k = a_k c^k conj(integral r^k dmu) and norm_sq = ||g||^2 = sum_k a_k
    |integral r^k dmu|^2. The values are exact Fractions for D4 (g_k = a_k 16^k,
    norm_sq = sum a_k), and complex coefficients with a float norm_sq for D2."""

    measure: PushforwardMeasure
    N: int
    diag: tuple
    norm_sq: Fraction | float

    def as_polynomial(self) -> Polynomial:
        """Exact polynomial form; D4 only."""
        if not isinstance(self.norm_sq, Fraction):
            raise ValueError("only the D4 witness has exact coefficients")
        dim = self.measure.dim
        return Polynomial(dim, {(k,) * dim: QComplex(g) for k, g in enumerate(self.diag)})

    def to_json(self) -> dict:
        out = {
            "variant": self.measure.variant,
            "N": self.N,
            "diag_coeffs": [{"re": c.real, "im": c.imag} for c in map(complex, self.diag)],
            "norm_sq": float(self.norm_sq),
        }
        if isinstance(self.norm_sq, Fraction):
            out["diag_coeffs_exact"] = [format_rational(q) for q in self.diag]
            out["norm_sq_exact"] = format_rational(self.norm_sq)
        else:
            out["table_source"] = self.measure.table.source
        return out


# Budgets of the exact D4 and the float D2 routes: the identity check takes
# C(maxdeg + 4, 4) exact monomials (135,751 at 40) or (maxdeg + 1)^2 pairs.
_MAX_WITNESS_N = {"D4": 200, "D2": 400}
_MAX_IDENTITY_DEG = {"D4": 40, "D2": 400}


def build_witness(variant: Variant, N: int,
                  table: Optional[FourierTable] = None) -> HenkinWitness:
    """Witness truncated at diagonal index N <= _MAX_WITNESS_N. D2 reads
    conj(sigma_hat(-k)) from `table` (ValueError past it), and the report
    records the table's source so independent-route checks stay auditable.
    """
    measure = PushforwardMeasure(variant, table)
    if not 0 <= N <= _MAX_WITNESS_N[variant]:
        raise ConfigError(f"N must be in [0, {_MAX_WITNESS_N[variant]}] for {variant}, got {N}")
    seq = build_kernel_sequence(measure.dim, N)
    diag = []
    norm_sq = 0
    # in index order, not by sum(), whose float sums are compensated from Python 3.12
    for k, a in enumerate(seq.a_exact):
        s = measure.conj_r_moment(k)
        diag.append(a * measure.scale ** k * s)
        norm_sq += a * abs(s) ** 2
    return HenkinWitness(measure=measure, N=N, diag=tuple(diag), norm_sq=norm_sq)


@dataclass(frozen=True)
class HenkinCheckResult:
    checked: int
    max_dev: float
    failures: tuple
    passed: bool


def _identity_tol(variant: Variant, maxdeg: int, tol: Optional[float]) -> Optional[float]:
    """The tol `henkin_identity_check` compares to, None for the exact D4
    identity, after refusing a maxdeg out of range and a tol the variant
    does not take; callable before the witness and the tables are built."""
    if not 0 <= maxdeg <= _MAX_IDENTITY_DEG[variant]:
        raise ConfigError(f"maxdeg must be in [0, {_MAX_IDENTITY_DEG[variant]}] for {variant}")
    if variant == "D4":
        if tol is not None:
            raise ConfigError("the D4 identity is exact and takes no tol")
        return None
    if tol is None:
        return 1e-10
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    return tol


def henkin_identity_check(variant: Variant, maxdeg: int, witness: HenkinWitness,
                          table: Optional[FourierTable] = None,
                          tol: Optional[float] = None) -> HenkinCheckResult:
    """Verify integral(z^alpha dmu) = <z^alpha, g> on every monomial.

    D4 (t = 0): all alpha with |alpha| <= maxdeg <= 40, compared as exact
    rationals, so it takes no tol; max_dev is 0 on success. Requires
    witness.N >= maxdeg // 4.

    D2: all pairs (m, n) with m, n <= maxdeg <= 400. Off-diagonal entries
    are exact zeros on both sides; diagonal entries compare the moment route
    (through `table`, which should be built independently of the
    witness's) against the inner-product route, to tolerance tol (1e-10
    unless given; positive and finite). Requires witness.N >= maxdeg.
    """
    measure = PushforwardMeasure(variant, table)
    tol = _identity_tol(variant, maxdeg, tol)
    if variant != witness.measure.variant:
        raise ConfigError("witness variant does not match")
    if witness.N < (maxdeg // 4 if measure.table is None else maxdeg):
        raise ConfigError("witness truncation too small for maxdeg")

    failures: list[tuple] = []
    if measure.table is None:
        g = witness.as_polynomial()
        checked = 0
        # multi_indices makes valid tuples of length dim, so neither the
        # monomial nor the moment checks them again
        for alpha in multi_indices(measure.dim, maxdeg):
            if da_inner(Polynomial._unit_monomial(alpha), g) != measure._moment(alpha):
                failures.append(alpha)
            checked += 1
        return HenkinCheckResult(checked=checked,
                                 max_dev=0.0 if not failures else math.inf,
                                 failures=tuple(failures), passed=not failures)

    checked = 0
    max_dev = 0.0
    for m in range(maxdeg + 1):
        for n in range(maxdeg + 1):
            if m == n:
                lhs = measure.moment((n, n))
                rhs = witness.diag[n].conjugate() * float(monomial_norm_sq((n, n)))
                dev = abs(lhs - rhs)
                max_dev = max(max_dev, dev)
                if dev > tol:
                    failures.append((m, n))
            else:
                # both routes vanish identically; record the comparison
                if measure.moment((m, n)) != 0:
                    failures.append((m, n))
            checked += 1
    return HenkinCheckResult(checked=checked,
                             max_dev=max_dev, failures=tuple(failures),
                             passed=not failures)


# ---------------------------------------------------------------------------
# failure of the classical Henkin property


@dataclass(frozen=True)
class NonHenkinReport:
    n_max: int
    integrals_all_one: bool
    integral_failures: tuple[int, ...]
    max_base_abs: float
    sampled_max_base_abs: float
    sup_ball_abs: float
    sup_ball_ok: bool
    n_below_threshold: int
    threshold: float
    max_fn_final: float
    origin_value_final: float
    passed: bool


# Rows of closed-ball points formed at a time: 256 KiB an array at d = 4.
_BALL_BLOCK = 2 ** 12


def _closed_ball_r_blocks(measure: PushforwardMeasure, n_ball: int, n_sphere: int,
                          rng: np.random.Generator, radius: float) -> Iterator[np.ndarray]:
    """r(z), with the measure's d and c, on n_ball uniform points of the ball
    of C^d of the given radius, then on n_sphere uniform points of the unit
    sphere, one block of _BALL_BLOCK rows at a time.

    A point is a uniform direction, d standard complex normals scaled to
    norm 1, times radius u^(1/(2d)) with u uniform on [0, 1) on the ball.
    Each half draws its radii first (the ball only), then its normals, the
    real and imaginary parts of a normal next to each other in one row of
    2d. The generator fills its arrays row by row, so drawing the normals a
    block at a time replays one full draw, and only the radii are held in
    full, 8 bytes a point. A half of size zero takes nothing from rng.
    """
    d, c = measure.dim, measure.scale
    for n, ball in ((n_ball, True), (n_sphere, False)):
        if ball:
            radii = rng.random((n, 1))
            radii **= 1.0 / (2 * d)
            radii *= radius
        for start in range(0, n, _BALL_BLOCK):
            g = rng.standard_normal((min(_BALL_BLOCK, n - start), 2 * d)).view(np.complex128)
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            if ball:
                g *= radii[start:start + _BALL_BLOCK]
            yield _r_values(g, c)


# sup |f_n| on the interior sample must fall below _DECAY_THRESHOLD by n = _DECAY_N
_DECAY_N = 1000
_DECAY_THRESHOLD = 1e-6

# Budgets of non_henkin_witness: the exact integrals sum Pascal rows of big
# ints, O(n_max^3) bit operations (0.1 s at this n_max), and the ball half
# of a sample holds its radii, 8 bytes a point (8 MB at this limit).
MAX_NON_HENKIN_N = 1000
MAX_GRID_POINTS = 10 ** 6


def _round_up(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def non_henkin_witness(n_max: int = 50, grid_points: int = 1000,
                       grid_radius: float = 0.9, seed: int = 0) -> NonHenkinReport:
    """The sequence f_n = ((1 + r)/2)^n against the D4 measure.

    (i) integral f_n dmu = 1 exactly for n <= n_max, by binomial expansion
        in exact rationals: every power r^j integrates to 1.
    (ii) on the ball of radius rho = grid_radius, sup |f_n| = b^n with
        b = (1 + rho^4)/2, since 16 |z1 z2 z3 z4| <= |z|^4 (AM-GM, equality
        at (rho/2)(1, 1, 1, 1)). b is reported rounded up to a float, and
        the first n with b^n < 1e-6, which must be at most 1000, is found
        in exact rationals. No point of a seeded interior sample may exceed
        b. Also f_n(0) = 2^(-n) -> 0.
    (iii) on the closed ball sup |f_1| = 1, by the same inequality; on a
        seeded sample of it, sup |f_1| <= 1 + 1e-12.

    Together these witness that integral(f_n dmu) fails to converge to 0
    while f_n -> 0 pointwise inside the ball with sup norms at most 1.
    n_max is at most MAX_NON_HENKIN_N and grid_points MAX_GRID_POINTS.
    """
    if not 0 <= n_max <= MAX_NON_HENKIN_N:
        raise ConfigError(f"n_max must be in [0, {MAX_NON_HENKIN_N}]")
    if not 1 <= grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"grid_points must be in [1, {MAX_GRID_POINTS}]")
    if not 0.0 < grid_radius < 1.0:
        raise ConfigError("grid_radius must lie strictly inside (0, 1)")

    # (i) exact integrals: 2^n integral(f_n dmu) = sum_j C(n, j) q_j, where
    # q_j = integral(r^j dmu) = c^j times the diagonal moment of order j.
    # Over one common denominator D the test is an identity of integers, so
    # no sum is ever reduced by a gcd.
    measure = PushforwardMeasure("D4")
    q = [measure.scale ** j * measure.moment((j,) * measure.dim) for j in range(n_max + 1)]
    D = math.lcm(*(qj.denominator for qj in q))
    scaled = [qj.numerator * (D // qj.denominator) for qj in q]
    failures = []
    binom = [1]  # row n of Pascal's triangle: C(n, j) for j = 0..n
    for n in range(n_max + 1):
        if sum(b * s for b, s in zip(binom, scaled)) != D << n:
            failures.append(n)
        binom = [a + b for a, b in zip([0] + binom, binom + [0])]

    # (ii) interior decay: the closed-form sup b = p / q, and b^n < t = u / v
    # as p^n v < u q^n in integers
    base = (1 + Fraction(grid_radius) ** 4) / 2
    (p, q), (u, v) = base.as_integer_ratio(), Fraction(_DECAY_THRESHOLD).as_integer_ratio()
    n_star, pn, qn = -1, 1, 1
    for n in range(1, _DECAY_N + 1):
        pn, qn = pn * p, qn * q
        if pn * v < u * qn:
            n_star = n
            break
    max_base, max_fn_final = _round_up(base), _round_up(base ** _DECAY_N)
    # the seeded interior sample as a one-sided check; np.maximum keeps a NaN
    rng = np.random.default_rng(seed)
    sampled_max_base = -math.inf
    for r_vals in _closed_ball_r_blocks(measure, grid_points, 0, rng, grid_radius):
        sampled_max_base = np.maximum(sampled_max_base, np.max(np.abs(0.5 * (1.0 + r_vals))))
    sampled_max_base = float(sampled_max_base)

    # (iii) sup certificate on the closed ball (interior plus sphere samples);
    # a NaN kept by np.maximum fails the comparison
    sup_f1 = -math.inf
    for r_vals in _closed_ball_r_blocks(measure, grid_points, grid_points, rng, 1.0):
        sup_f1 = np.maximum(sup_f1, np.max(np.abs(0.5 * (1.0 + r_vals))))
    sup_ok = bool(sup_f1 <= 1.0 + 1e-12)

    passed = (not failures) and sup_ok and sampled_max_base <= max_base \
        and 0 < n_star <= _DECAY_N and max_fn_final < _DECAY_THRESHOLD
    return NonHenkinReport(
        n_max=n_max, integrals_all_one=not failures,
        integral_failures=tuple(failures), max_base_abs=max_base,
        sampled_max_base_abs=sampled_max_base, sup_ball_abs=1.0, sup_ball_ok=sup_ok,
        n_below_threshold=n_star, threshold=_DECAY_THRESHOLD,
        max_fn_final=max_fn_final, origin_value_final=2.0 ** (-_DECAY_N),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# peak behaviour of f = (1 + r)/2 on the D4 support


@dataclass(frozen=True)
class PeakReport:
    max_peak_dev: float
    support_dev: float
    kept: int
    rejected: int
    min_margin: float
    all_strictly_inside: bool
    passed: bool

    def margin_json(self) -> dict:
        """min_margin, or null with a reason when no sample was kept."""
        return finite_or_null("min_margin", self.min_margin, "no sample outside delta")


# How far from 1 |f| and the squared radius may be on the D4 support.
PEAK_TOL = 1e-12

# The most points peak_check draws on each of its two samples. It streams
# them on the calling thread, so its memory is a block of support points
# with its draws and temporaries, about 2 MB, then the radii of the
# closed-ball half, 4 bytes a sample (40 MB at this limit), and its time
# about 0.4 s per 10^6 points.
MAX_PEAK_SAMPLES = 10 ** 7


def peak_check(samples: int = 10_000, seed: int = 0, delta: float = 1e-2) -> PeakReport:
    """f = (1 + r)/2 equals 1 on the D4 support and is strictly smaller
    elsewhere on the closed ball.

    On `samples` pushforward points: |f - 1| <= PEAK_TOL and the points sit
    on the sphere to the same tolerance. On `samples` closed-ball points with
    |r(z) - 1| > delta: |f| < 1 strictly; the minimum margin 1 - |f| is
    reported. samples must be in [1, MAX_PEAK_SAMPLES], and delta positive
    and finite: a nan or infinite delta would keep no point.
    """
    if not 1 <= samples <= MAX_PEAK_SAMPLES:
        raise ConfigError(f"samples must be in [1, {MAX_PEAK_SAMPLES}]")
    if not 0.0 < delta < math.inf:
        raise ConfigError(f"delta must be positive and finite, got {delta!r}")
    rng = np.random.default_rng(seed)

    # Each half is one streamed fold on the calling thread: a block of rows
    # is drawn, reduced, and folded into the running values. The random
    # generator fills its arrays row by row, so the blocks take the stream
    # of one full draw. Every reduction is a max, a min, a count or an
    # `all`, whose value does not depend on the blocks; the folds use
    # np.maximum/np.minimum, which keep a NaN where Python's max/min could
    # drop it.
    measure = PushforwardMeasure("D4")
    support_dev = max_peak_dev = -math.inf
    for support in _mc_point_blocks(measure, samples, rng):
        r_vals = _r_values(support, measure.scale)
        moduli = np.add.reduce(np.square(np.abs(support)), axis=1)
        support_dev = np.maximum(support_dev, np.max(np.abs(moduli - 1.0)))
        max_peak_dev = np.maximum(max_peak_dev, np.max(np.abs((r_vals + 1.0) * 0.5 - 1.0)))
    support_dev, max_peak_dev = float(support_dev), float(max_peak_dev)
    del support, r_vals, moduli

    half = samples // 2
    kept = 0
    min_margin = math.inf
    all_inside = True
    for r_vals in _closed_ball_r_blocks(measure, samples - half, half, rng, 1.0):
        far = np.abs(r_vals - 1.0) > delta
        margins = 1.0 - np.abs((r_vals + 1.0) * 0.5)
        kept += int(np.count_nonzero(far))
        min_margin = np.minimum(min_margin, np.min(margins, where=far, initial=math.inf))
        all_inside = all_inside and bool(np.all(margins > 0.0, where=far))
    rejected = samples - kept
    min_margin = float(min_margin)

    passed = max_peak_dev <= PEAK_TOL and support_dev <= PEAK_TOL and all_inside
    return PeakReport(max_peak_dev=max_peak_dev, support_dev=support_dev, kept=kept,
                      rejected=rejected, min_margin=min_margin,
                      all_strictly_inside=all_inside, passed=passed)


# ---------------------------------------------------------------------------
# the norm bound |integral(phi dmu)| <= ||phi|| ||g|| at its extremum phi = g


@dataclass(frozen=True)
class ExtremalBoundReport:
    ratio: float
    route_gap: float
    tolerance: float
    passed: bool


def extremal_bound_check(witness: HenkinWitness) -> ExtremalBoundReport:
    """The bound |integral(phi dmu)| <= ||phi|| ||g|| at phi = g, where
    integral(phi dmu) = <phi, g> makes it an equality (Riesz). Three routes
    give ||g||^2 there:

      - integral(g dmu) = sum_k g_k integral((z_1...z_d)^k dmu), from the
        measure's `moment`;
      - sum_k |g_k|^2 ||(z_1...z_d)^k||^2, from `monomial_norm_sq`;
      - `witness.norm_sq`, the witness's own sum of a_k |integral r^k dmu|^2.

    ratio is |integral(g dmu)| / (||g|| ||g||), with the second and third
    routes' norms, and is 1 at the extremum; route_gap is the largest
    difference between two routes. D4 compares exact Fractions, so the
    tolerance is 0. D2 judges the gap against the float term below. Its
    moments read sigma_hat(-k) and its witness sigma_hat(k) from one table,
    so the routes agree only where the table is conjugate-symmetric, as the
    recursion table is exactly.
    """
    measure = witness.measure
    integral = norm_sq = 0
    for k, g in enumerate(witness.diag):
        alpha = (k,) * measure.dim
        integral += g * measure.moment(alpha)
        norm_sq += abs(g) ** 2 * monomial_norm_sq(alpha)
    own = witness.norm_sq
    gap = max(abs(integral - norm_sq), abs(integral - own), abs(norm_sq - own))
    if measure.table is None:
        tolerance = 0.0
    else:
        # Each route adds the N + 1 terms in index order. Every term has
        # absolute value a_k |integral r^k dmu|^2 and is formed with a
        # relative error of at most 16 units of roundoff: a few correctly
        # rounded operations, and libm's pow and hypot within one ulp. A sum
        # of N + 1 terms adds at most N units of their absolute sum (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4), so
        # each route is within (N + 16) units of ||g||^2 and two routes
        # differ by twice that. 16 more units cover the second-order terms.
        tolerance = 2.0 * (witness.N + 32) * _UNIT_ROUNDOFF * own
    return ExtremalBoundReport(ratio=math.sqrt(abs(integral) ** 2 / (norm_sq * own)),
                               route_gap=float(gap), tolerance=tolerance,
                               passed=gap <= tolerance)
