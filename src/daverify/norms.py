"""Drury-Arveson norms of monomials and polynomials, exactly.

The space H^2_d on the unit ball of C^d has reproducing kernel
1/(1 - <z,w>), and the monomials are orthogonal with

    ||z^alpha||^2 = alpha! / |alpha|!

All norm computations here return Fractions; floating point appears only in
the asymptotic-ratio helper stirling_ratio, which exists to be compared
against its exact counterpart.

Two integer shortcuts keep the exact values cheap without changing them. The
multinomial (d n)!/(n!)^d in ||r^n||^2 is built from its prime exponents
(Legendre's formula for v_p(m!)), with the prime powers multiplied pairwise,
instead of from full factorials, and sums of Fractions are taken over one
common denominator with a single reduction at the end instead of a gcd after
every addition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import (
    ConfigError,
    MultiIndex,
    Polynomial,
    QComplex,
    ScalarLike,
    validate_multi_index,
)

# The ring maps z -> r(z) are built from c * z_1...z_d with c^2 = d^d.
# For the supported d, the keys below, c = d^(d/2) is an integer, so r has
# exact integer coefficients: r = 2 z1 z2 and r = 16 z1 z2 z3 z4.
_DISC_SCALE = {2: 2, 4: 16}
SUPPORTED_DIMS = tuple(_DISC_SCALE)

_QC_ZERO = QComplex()


def disc_map_scale(d: int) -> int:
    """Integer c with c^2 = d^d; ConfigError unless d is in SUPPORTED_DIMS."""
    try:
        return _DISC_SCALE[d]
    except KeyError:
        raise ConfigError(f"d must be one of {SUPPORTED_DIMS}, got {d}")


@lru_cache(maxsize=None)
def monomial_norm_sq(alpha: MultiIndex) -> Fraction:
    """Exact squared H^2_d norm of z^alpha: alpha!/|alpha|!."""
    a = validate_multi_index(alpha)
    num = 1
    for ai in a:
        num *= math.factorial(ai)
    return Fraction(num, math.factorial(sum(a)))


def _fraction_sum(nums: Sequence[int], dens: Sequence[int]) -> Fraction:
    """Exact sum of nums[i]/dens[i] (dens positive), reduced once: every
    term is brought to D = lcm(dens) and the integer numerators are added."""
    D = math.lcm(*dens)
    return Fraction(sum(n * (D // t) for n, t in zip(nums, dens)), D)


def da_inner(p: Polynomial, q: Polynomial) -> QComplex:
    """Exact H^2_d inner product <p, q> = sum_alpha p_a conj(q_a) ||z^a||^2."""
    if p.dimension != q.dimension:
        raise ConfigError(f"dimension mismatch: {p.dimension} vs {q.dimension}")
    pt, qt = p.terms, q.terms
    # a one-term p absent from q, as for most monomials against a sparse q
    if len(pt) == 1 and next(iter(pt)) not in qt:
        return _QC_ZERO
    re_nums, im_nums, dens = [], [], []
    for alpha in (pt if len(pt) <= len(qt) else qt):
        x = pt.get(alpha)
        y = qt.get(alpha)
        if x is None or y is None:
            continue
        w = monomial_norm_sq(alpha)
        # x = a/b + i c/e, y = f/g + i h/k, w = u/v; over the common
        # denominator b e g k v, x * conj(y) * w has numerators
        # (a f e k + c h b g) u and (c f b k - a h e g) u.
        a, b = x.re.numerator, x.re.denominator
        c, e = x.im.numerator, x.im.denominator
        f, g = y.re.numerator, y.re.denominator
        h, k = y.im.numerator, y.im.denominator
        u = w.numerator
        re_nums.append((a * f * e * k + c * h * b * g) * u)
        im_nums.append((c * f * b * k - a * h * e * g) * u)
        dens.append(b * e * g * k * w.denominator)
    if not dens:
        return _QC_ZERO
    return QComplex(_fraction_sum(re_nums, dens), _fraction_sum(im_nums, dens))


def _multinomial(d: int, n: int) -> int:
    """(d n)! / (n!)^d, from its prime factorization: by Legendre's formula
    the exponent of a prime p is sum_i (floor(d n / p^i) - d floor(n / p^i))."""
    m = d * n
    if m < 2:
        return 1
    is_prime = bytearray([1]) * (m + 1)
    is_prime[0] = is_prime[1] = 0
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    powers = []
    for p in itertools.compress(range(m + 1), is_prime):
        e = 0
        q = p
        while q <= m:
            e += m // q - d * (n // q)
            q *= p
        powers.append(p ** e)
    # pairwise, so that most products join factors of similar size, which
    # big-int multiplication does faster than one growing product
    while len(powers) > 1:
        it = iter(powers)
        powers = [a * b for a, b in itertools.zip_longest(it, it, fillvalue=1)]
    return powers[0]


def _r_power_norm_terms(d: int, n: int) -> tuple[int, int]:
    """(numerator, denominator) of ||r(z)^n||^2 = d^(d n) / M with the
    multinomial M = (d n)!/(n!)^d, not reduced: the two can share factors."""
    if d < 1:
        raise ConfigError("d must be >= 1")
    if n < 0:
        raise ConfigError("n must be >= 0")
    return d ** (d * n), _multinomial(d, n)


def r_power_norm_sq(d: int, n: int) -> Fraction:
    """Exact ||r(z)^n||^2 in H^2_d where r = c * z_1...z_d with c^2 = d^d.

    Equals d^(d n) * (n!)^d / (d n)!.
    """
    return Fraction(*_r_power_norm_terms(d, n))


def _kernel_weights(d: int, count: int) -> list[Fraction]:
    """[1 / r_power_norm_sq(d, n) for n < count], each reduced, by the
    one-step recurrence a_{n+1} = a_n prod_{j=1..d}(d n + j) / (d^d (n+1)^d),
    which keeps the intermediate integers small."""
    if d < 1:
        raise ConfigError("d must be >= 1")
    out = [Fraction(1)] if count > 0 else []
    for n in range(count - 1):
        out.append(out[n] * Fraction(math.prod(range(d * n + 1, d * n + d + 1)),
                                     d ** d * (n + 1) ** d))
    return out


def stirling_ratio(d: int, n: int) -> float:
    """d^(dn) ||(z_1...z_d)^n||^2 / (n+1)^((d-1)/2), a bounded ratio in n.

    Stays in a fixed positive interval for every n; as n grows it approaches
    sqrt(pi) for d = 2 and (2 pi)^(3/2) / 2 for d = 4, and it is identically
    1 for d = 1.
    """
    # int / int is correctly rounded, so d^(d n) / M gives
    # float(r_power_norm_sq(d, n)) without the gcd that reducing it costs.
    num, den = _r_power_norm_terms(d, n)
    return num / den / float(n + 1) ** ((d - 1) / 2.0)


def compose_with_r(f_coeffs: Sequence[ScalarLike], d: int) -> Polynomial:
    """Map a one-variable polynomial sum f_n w^n to sum f_n r(z)^n in H^2_d."""
    c = disc_map_scale(d)
    terms = {}
    for n, fn in enumerate(f_coeffs):
        qc = QComplex.from_value(fn)
        if qc.is_zero():
            continue
        terms[(n,) * d] = qc * c ** n
    return Polynomial(d, terms)


@dataclass(frozen=True)
class IsometryReport:
    d: int
    degree: int
    disc_norm_sq: Fraction
    da_norm_sq: Fraction
    equal: bool


# The highest degree of f isometry_check takes, where one check at d = 4 takes
# 0.03 s (0.07 s cold); the time grows about as the degree cubed (0.87 s at 1000).
MAX_ISOMETRY_DEGREE = 400


def isometry_check(f_coeffs: Sequence[ScalarLike], d: int) -> IsometryReport:
    """Verify, exactly, that f -> f(r(z)) is isometric from the weighted disc
    space with weights a_n = 1/||r^n||^2 into H^2_d.

    Left side: sum |f_n|^2 / a_n. Right side: ||f(r(z))||^2 computed through
    the multinomial norm route. The two are required to agree as Fractions.
    f has at most MAX_ISOMETRY_DEGREE + 1 coefficients.
    """
    if len(f_coeffs) > MAX_ISOMETRY_DEGREE + 1:
        raise ConfigError(f"the degree of f must be at most {MAX_ISOMETRY_DEGREE}")
    coeffs = [QComplex.from_value(c) for c in f_coeffs]
    deg = len(coeffs) - 1 if coeffs else 0

    # |a/b + i c/e|^2 / (u/v) = (a^2 e^2 + c^2 b^2) v / (b^2 e^2 u) with
    # u/v = a_n = 1/||r^n||^2
    nums, dens = [], []
    for fn, weight in zip(coeffs, _kernel_weights(d, len(coeffs))):
        a, b = fn.re.numerator, fn.re.denominator
        c, e = fn.im.numerator, fn.im.denominator
        nums.append((a * a * e * e + c * c * b * b) * weight.denominator)
        dens.append(b * b * e * e * weight.numerator)
    lhs = _fraction_sum(nums, dens)

    composed = compose_with_r(coeffs, d)
    rhs_qc = da_inner(composed, composed)
    if rhs_qc.im != 0:
        raise AssertionError("self inner product came out non-real")
    rhs = rhs_qc.re

    return IsometryReport(d=d, degree=deg, disc_norm_sq=lhs, da_norm_sq=rhs, equal=lhs == rhs)


def extension_norm_check(alpha: Sequence[int], d_prime: int) -> bool:
    """Check that z^alpha keeps the same norm when H^2_d sits inside H^2_d'.

    The inclusion pads alpha with zeros; the norm formula alpha!/|alpha|! is
    unchanged because 0! = 1. Returns True when the two exact norms agree.
    """
    a = validate_multi_index(alpha)
    if d_prime < len(a):
        raise ConfigError("d_prime must be at least the length of alpha")
    padded = a + (0,) * (d_prime - len(a))
    return monomial_norm_sq(a) == monomial_norm_sq(padded)
