"""Middle-thirds Cantor measure on the circle: Fourier coefficients, the
weighted square-summability witness, and Riesz energy estimates.

The measure sigma is the self-similar probability measure on [0, 1) (read as
the circle R/Z) satisfying sigma = (1/2) sigma S_0^{-1} + (1/2) sigma S_1^{-1}
with S_0(t) = t/3 and S_1(t) = t/3 + 2/3. Its Fourier coefficients

    sigma_hat(n) = integral exp(-2 pi i n t) dsigma(t)
                 = prod_{j>=1} (1 + exp(-4 pi i n / 3^j)) / 2
                 = (-1)^n prod_{j>=1} cos(2 pi n / 3^j)

are real, and sigma_hat(3n) = sigma_hat(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _workers
from .exact import ConfigError

# The variance of sigma about its barycenter 1/2 drives the IFS oracle's
# a-priori tolerance below.
_VARIANCE = 0.125  # E[(t - 1/2)^2] under sigma

MAX_IFS_LEVEL = 20  # a 64-row phase block then holds 64 x 2^20 complex values, 1 GiB
MAX_TABLE_N = 2 ** 20  # a table then holds 2^21 + 1 complex values, 32 MiB

# Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53


def _check_ifs_level(level: int) -> None:
    if not 0 <= level <= MAX_IFS_LEVEL:
        raise ConfigError(f"level must be in [0, {MAX_IFS_LEVEL}], got {level}")


def atoms(level: int) -> np.ndarray:
    """The 2^level equal-weight atom positions of the level-`level` IFS
    discretization, as float64 in [0, 1).

    Each atom sits at its cell's barycenter, which cancels the first-order
    term of the discretization error. Digit j doubles the list: the atoms so
    far, then the same plus 2 3^-j. Levels above MAX_IFS_LEVEL are refused.
    """
    _check_ifs_level(level)
    t = np.zeros(1)
    for j in range(level):
        t = np.concatenate([t, t + 2.0 * 3.0 ** -(j + 1)])
    t += 0.5 * 3.0 ** (-level)
    return t


def support_measure_zero(level: int) -> float:
    """Lebesgue measure of the level-`level` cover of the support, (2/3)^level.

    Tends to 0, witnessing that sigma is singular."""
    if level < 0:
        raise ConfigError("level must be >= 0")
    return (2.0 / 3.0) ** level


# _cos_product forms float(3 ** j) for j <= recursion_depth(n, eps), and 3^646
# is the largest power of 3 below the float64 maximum. With |n| <= 2^22 (the
# longest weighted sum `cantor-fourier` takes) and eps >= _MIN_EPS, j <= 644.
_MIN_EPS = 1e-300


def recursion_depth(n: int, eps: float) -> int:
    """Depth k such that truncating the product at scale |n|/3^k changes the
    value by at most eps; uses the first-moment bound |sigma_hat(x) - 1|
    <= 2 pi |x| * 1/2. eps must be finite and at least _MIN_EPS."""
    if not _MIN_EPS <= eps < math.inf:
        raise ConfigError(f"eps must be finite and >= {_MIN_EPS}, got {eps!r}")
    k = 0
    x = abs(float(n))
    while math.pi * x > eps:
        x /= 3.0
        k += 1
    return k


def _cos_product(n_max: int, eps: float) -> np.ndarray:
    """P(n) = prod_{j=1..k} cos(2 pi n / 3^j) for n = 0..n_max, with
    k = recursion_depth(n_max, eps), so that sigma_hat(n) = (-1)^n P(|n|).

    Each factor of the defining product is (1 + exp(-4 pi i n / 3^j)) / 2 =
    exp(-2 pi i n / 3^j) cos(2 pi n / 3^j), and the phases multiply to
    exp(-pi i n) = (-1)^n. With x = n / 3^k <= eps / pi, the factors left out
    multiply to 1 - O(eps^2): 1 - prod_{j>k} cos(2 pi n / 3^j) <=
    sum_{j>=1} (2 pi x / 3^j)^2 / 2 = (pi x)^2 / 4 <= eps^2 / 4.

    Each angle is 2 pi (n mod 3^j) / 3^j with the remainder exact, so its
    rounding error stays within a few units whatever n and j are. The levels
    whose period 3^j is at most n_max make one period table: level j is
    evaluated on n < 3^j, where n mod 3^j = n, and multiplies three copies of
    the table of the levels before it. That table is repeated over 0..n_max,
    and the later levels are evaluated on every n, in one slice of the range
    per worker. Every entry is the same product, multiplied level by level in
    the same order, whatever the number of workers.
    """
    size = n_max + 1
    depth = recursion_depth(n_max, eps)
    x = np.arange(size, dtype=np.float64)
    scratch = np.empty(size, dtype=np.float64)  # the level factors being multiplied in
    period = np.ones(1)
    j = 1
    while j <= depth and 3 ** j <= n_max:
        period = np.tile(period, 3)
        p = len(period)
        period *= _level_factor(x[:p], p, scratch[:p])
        j += 1
    v = np.resize(period, size)
    later = [3 ** level for level in range(j, depth + 1)]
    _workers.run([partial(_later_levels, v[s], x[s], scratch[s], later)
                  for s in _workers.slices(size)])
    return v


def _level_factor(x: np.ndarray, period: int, out: np.ndarray) -> np.ndarray:
    """cos(2 pi x / period), written into out."""
    np.divide(x, float(period), out=out)
    out *= 2.0 * np.pi
    return np.cos(out, out=out)


def _later_levels(v: np.ndarray, x: np.ndarray, scratch: np.ndarray,
                  periods: list[int]) -> None:
    """Multiply v in place by the level of each period, evaluated at x in
    scratch."""
    for p in periods:
        v *= _level_factor(x, p, scratch)


@dataclass(frozen=True)
class FourierTable:
    """sigma_hat(n) for |n| <= max_n, with the builder's accuracy estimate.

    coeffs holds sigma_hat(n) at index n + max_n, as complex128."""

    max_n: int
    coeffs: np.ndarray
    tolerance: float
    source: str

    def __getitem__(self, n: int) -> complex:
        # a bare index would wrap n = -max_n - 1 round to the other end
        if abs(n) > self.max_n:
            raise ValueError(f"|n| = {abs(n)} outside table range {self.max_n}")
        return complex(self.coeffs[n + self.max_n])

    def symmetry_defect(self) -> float:
        """max |sigma_hat(-n) - conj(sigma_hat(n))| over the table."""
        return float(np.max(_modulus(self.coeffs[::-1] - self.coeffs.conj())))

    def max_abs(self) -> float:
        return float(np.max(_modulus(self.coeffs)))

    def csv_rows(self) -> list[list]:
        c = self.coeffs
        return [list(row) for row in zip(range(-self.max_n, self.max_n + 1), c.real.tolist(),
                                         c.imag.tolist(), _modulus(c).tolist())]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex) rounds it, through hypot;
    np.abs differs from it in the last bit for some values."""
    return np.hypot(z.real, z.imag)


def _check_table_size(max_n: int) -> None:
    if not 0 <= max_n <= MAX_TABLE_N:
        raise ConfigError(f"max_n must be in [0, {MAX_TABLE_N}], got {max_n}")


def fourier_table_recursion(max_n: int, eps: float = 1e-10) -> FourierTable:
    """Table of sigma_hat(n) = (-1)^n prod_j cos(2 pi n / 3^j), |n| <= max_n,
    truncated at recursion_depth(max_n, eps) levels; real, and within
    eps^2 / 4 of the infinite product before rounding. max_n above
    MAX_TABLE_N is refused."""
    _check_table_size(max_n)
    half = _cos_product(max_n, eps)
    half[1::2] *= -1.0
    coeffs = np.concatenate([half[:0:-1], half]).astype(np.complex128)
    return FourierTable(max_n=max_n, coeffs=coeffs, tolerance=eps, source="recursion")


_IFS_BLOCK = 64


def fourier_table_ifs(max_n: int, level: int = 14) -> FourierTable:
    """Table of sigma_hat(n), |n| <= max_n, by direct summation over the
    level-`level` atomic discretization. Independent of the recursion route.

    With n = n0 + m, n0 a multiple of 64 and 0 <= m < 64, each atom's phase
    factors as exp(-2 pi i n0 t) exp(-2 pi i m t), so every row of 64
    coefficients is one matrix product of the n0 phases with the 64 shared
    m phases, and only 1/64 of the exponentials are evaluated. Only the m
    phases that some n reads are built, so a small table at a deep level
    holds a few of the 64 columns.

    The atoms sit at cell barycenters, so the a-priori accuracy estimate,
    pi^2 max_n^2 9^-level / 4, is second order in the cell width. The
    tolerance adds to it the rounding of the atoms, the phases and the
    block products (below). Levels above MAX_IFS_LEVEL are refused; the m
    phases and each chunk of at most 64 n0 phases are the two largest blocks
    held. max_n above MAX_TABLE_N is refused.
    """
    _check_table_size(max_n)
    _check_ifs_level(level)
    t = atoms(level)
    first = -max_n // _IFS_BLOCK  # the block holding n = -max_n
    offsets = np.arange(first, max_n // _IFS_BLOCK + 1, dtype=np.float64) * _IFS_BLOCK
    # the m that some |n| <= max_n reads, as n or as 64 - |n|: all once max_n >= 32
    ms = np.arange(_IFS_BLOCK)
    ms = ms[(ms <= max_n) | (ms >= _IFS_BLOCK - max_n)]
    inner = _phases(ms.astype(np.float64), t).T
    block = np.zeros((len(offsets), _IFS_BLOCK), dtype=np.complex128)
    for start in range(0, len(offsets), _IFS_BLOCK):
        block[start:start + _IFS_BLOCK, ms] = _phases(offsets[start:start + _IFS_BLOCK], t) @ inner
    vals = block.ravel() / len(t)
    lo = -max_n - first * _IFS_BLOCK  # position of n = -max_n in vals
    coeffs = vals[lo:lo + 2 * max_n + 1]
    midpoint = 0.5 * (2.0 * np.pi * max_n * 3.0 ** (-level)) ** 2 * _VARIANCE
    # The rounding term assumes that libm's pow, and its exp of an imaginary
    # argument (cos and sin), are within one ulp. With u the unit roundoff:
    # - an atom position sums at most level + 1 terms, below 1 in total and
    #   each within 3u, so it is within (level + 4) u;
    # - a phase argument 2 pi k t, |k| <= max_n + 64, takes three more
    #   roundings (pi, 2 pi k, times t), so it is within
    #   2 pi (max_n + 64)(level + 7) u, and the phase within that plus 2u;
    # - a product of two phases is within the sum of their errors, plus 4u
    #   for the second-order terms;
    # - a complex dot product of n terms is within sqrt(2) gamma_2n of the
    #   sum of the terms' moduli, in any order of summation (Higham, Accuracy
    #   and Stability of Numerical Algorithms, 2002, ch. 3), so the average
    #   of the 2^level products, after its exact division, is within
    #   3 * 2^level u.
    rounding = (4.0 * np.pi * (max_n + 64) * (level + 7) + 3.0 * 2 ** level + 8.0) \
        * _UNIT_ROUNDOFF
    return FourierTable(max_n=max_n, coeffs=coeffs, tolerance=float(midpoint + rounding),
                        source=f"ifs-level-{level}")


def _phases(ks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-2 pi i k t) for every k in ks (rows) and atom t (columns)."""
    out = np.multiply.outer(-2j * np.pi * ks, t)
    _workers.run([partial(np.exp, out[s], out=out[s]) for s in _workers.slices(len(out))])
    return out


def _weighted_terms(n_max: int, eps: float) -> np.ndarray:
    """|sigma_hat(n)|^2 / (n+1)^(1/2) for n = 0..n_max."""
    terms = _cos_product(n_max, eps)
    terms *= terms
    terms *= (np.arange(n_max + 1, dtype=np.float64) + 1.0) ** -0.5
    return terms


def weighted_fourier_sum(N: int, eps: float = 1e-9) -> float:
    """Partial sum S(N) = sum_{n=0..N} |sigma_hat(n)|^2 / (n+1)^(1/2).

    The full series converges because the energy dimension of sigma exceeds
    1/2; the partial sums are the computable witness of that.
    """
    if N < 0:
        raise ConfigError("N must be >= 0")
    return float(np.sum(_weighted_terms(N, eps)))


def weighted_fourier_partials(Ns: list[int], eps: float = 1e-9) -> dict[int, float]:
    """S(N) for each N in Ns, sharing one coefficient table (single pass)."""
    if not Ns:
        return {}
    if any(N < 0 for N in Ns):
        raise ConfigError("all N must be >= 0")
    csum = np.cumsum(_weighted_terms(max(Ns), eps))
    return {N: float(csum[N]) for N in Ns}


@dataclass(frozen=True)
class EnergyEstimate:
    """Proven bracket lower <= I(sigma) <= upper at one level, with the
    distinct-atom pair sum of the same level."""

    level: int
    lower: float
    upper: float
    pair_sum: float


MAX_ENERGY_LEVEL = 14  # 3^14 difference vectors; peak memory about 220 MB


def _sinc(x: float) -> float:
    return math.sin(x) / x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a * b in einsum's fixed, single-threaded order; a BLAS dot product
    splits the sum by thread count, which would tie the reports to it."""
    return float(np.einsum("i,i->", a, b))


def _difference_weights(level: int) -> np.ndarray:
    """w[M + m] = P(D = 2m 3^-level) for m = -M..M, M = (3^level - 1)/2, where
    D is the offset difference of two independent level-`level` cells.

    The digit differences e_j = a_j - b_j are -1, 0, 1 with probability
    1/4, 1/2, 1/4, and m = sum_j e_j 3^(level-j) is the balanced-ternary
    integer with those digits, so each m occurs exactly once. The weights are
    powers of two, hence exact.
    """
    w = np.ones(1)
    for _ in range(level):
        w = np.kron(w, [0.25, 0.5, 0.25])
    return w


def riesz_energy(level: int) -> EnergyEstimate:
    """Proven bracket on the Riesz 1/2-energy of sigma on the circle,

        I(sigma) = double integral f(x - y) dsigma dsigma,
        f(d) = |exp(2 pi i d) - 1|^(-1/2) = |2 sin(pi d)|^(-1/2),

    from the 2^level cells of width h = 3^-level. For points X, Y in two
    cells, X - Y = D + hU with D the cells' offset difference and U = X' - Y'
    symmetric on [-1, 1], X' and Y' independent copies of sigma. Three kinds
    of cell pair make up I:

    - distinct cells that do not touch: f is convex on [D - h, D + h], so
      f(D) <= E f(D + hU) <= (f(D - h) + f(D + h))/2 (Jensen and
      Edmundson-Madansky);
    - the same cell, mass 2^-level: the chord 2 sin(pi s), s = h|U| <= h, lies
      between 2 pi s sinc(pi h) and 2 pi s, so these pairs give q^level J
      times (2 pi)^(-1/2) below and (2 pi sinc(pi h))^(-1/2) above, with
      q = sqrt(3)/2 and J = E|X' - Y'|^(-1/2) the energy on the line;
    - the first and last cells, which touch at 0 = 1, mass 2 * 4^-level:
      there the distance is h (X'' + Y') with X'' = 1 - X' ~ sigma, so they
      give 2 (sqrt(3)/4)^level K times (2 pi)^(-1/2) below and
      (2 pi sinc(2 pi h))^(-1/2) above, with K = E|X' - Y' + 1|^(-1/2).

    Self-similarity closes J and K. Split the line kernel |x|^(-1/2) over the
    same cell pairs: J returns q^level J from the same cell and K returns
    (sqrt(3)/4)^level K from the one pair where X - Y + 1 = h (U + 1), so
    J = (distinct-cell line sum) / (1 - q^level) and K = (regular terms) /
    (1 - (sqrt(3)/4)^level), each sum bracketed by the same two convexity
    bounds. Float64 rounding widens both ends outward (see below).

    pair_sum is the sum of the chordal kernel over ordered pairs of distinct
    level-`level` atoms, weight 4^-level per pair. It leaves out the
    same-cell energy, so it lies below I. Every atom sits at the same offset
    in its cell, so the atom differences are the offset differences D.

    The 4^level cell pairs enter only through the 3^level values of D and
    their probabilities, so the work is O(3^level). Levels above
    MAX_ENERGY_LEVEL are refused.
    """
    if not 1 <= level <= MAX_ENERGY_LEVEL:
        raise ConfigError(f"level must be in [1, {MAX_ENERGY_LEVEL}], got {level}")
    n = 3 ** level  # every distance below is j * h for an integer j
    M = (n - 1) // 2
    w = _difference_weights(level)
    pos = w[M + 1:]  # P(D = 2m h) for m = 1..M; -D weighs the same
    reg = pos[:-1]  # m = M is the touching pair, D = 1 - h
    with np.errstate(divide="ignore"):
        line = np.sqrt(n / np.arange(2 * n + 1, dtype=np.float64))  # |j h|^(-1/2)
        half = (2.0 * np.sin(np.pi / n * np.arange(M + 1))) ** -0.5
    chord = np.concatenate([half, half[::-1]])  # f(j h), j = 0..n, by f(d) = f(1 - d)

    pair_sum = 2.0 * _dot(pos, chord[2:2 * M + 1:2])
    cross_lo = 2.0 * _dot(reg, chord[2:2 * M:2])
    cross_hi = _dot(reg, chord[1:2 * M - 1:2] + chord[3:2 * M + 1:2])
    # (1 - q^L) J: every pair of distinct cells, line kernel about |D| = 2m h.
    j_lo = 2.0 * _dot(pos, line[2:2 * M + 1:2])
    j_hi = _dot(pos, line[1:2 * M:2] + line[3:2 * M + 2:2])
    # (1 - (sqrt(3)/4)^L) K: X - Y + 1 = (2m + n) h + hU for m = -M+1..M.
    k_lo = _dot(w[1:], line[3:2 * n:2])
    k_hi = 0.5 * _dot(w[1:], line[2:2 * n - 1:2] + line[4:2 * n + 1:2])

    root_n = math.sqrt(n)  # h^(-1/2)
    q_l = root_n / 2.0 ** level  # (sqrt(3)/2)^L
    r_l = root_n / 4.0 ** level  # (sqrt(3)/4)^L
    j_lo, j_hi = j_lo / (1.0 - q_l), j_hi / (1.0 - q_l)
    k_lo, k_hi = k_lo / (1.0 - r_l), k_hi / (1.0 - r_l)
    arc = 1.0 / math.sqrt(2.0 * math.pi)
    lower = cross_lo + arc * (q_l * j_lo + 2.0 * r_l * k_lo)
    upper = cross_hi + arc * (q_l * j_hi / math.sqrt(_sinc(math.pi / n))
                              + 2.0 * r_l * k_hi / math.sqrt(_sinc(2.0 * math.pi / n)))
    # Every summand is positive, with a relative error of at most 16 units of
    # roundoff: a few correctly rounded operations and one sin, within 4 ulp,
    # of an argument in [0, pi/2], where sin is well conditioned. A sum or dot
    # product of at most n positive terms adds at most n units in any order
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4),
    # and the closing divisions and constant factors fewer than 64 more. Each
    # end is thus within (n + 80) units of its exact value; widen by twice that.
    slack = 2.0 * (n + 80) * _UNIT_ROUNDOFF
    return EnergyEstimate(level=level, lower=float(lower) * (1.0 - slack),
                          upper=float(upper) * (1.0 + slack), pair_sum=float(pair_sum))
