"""Exact arithmetic core: Gaussian rationals, multi-indices, sparse polynomials.

Everything downstream that claims an identity holds *exactly* routes through
this module, so nothing here is allowed to touch floating point except the
explicit conversion helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from typing import Mapping, Sequence, Union

MultiIndex = tuple[int, ...]

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QComplex"]


class ConfigError(ValueError):
    """An input or budget an entry point refuses; the CLI exits 2 on it."""


def validate_multi_index(alpha: Sequence[int]) -> MultiIndex:
    """Return alpha as a tuple, rejecting negative or non-integer entries."""
    out = tuple(alpha)
    for a in out:
        # `type(a) is int` is the common case and already excludes bool
        if type(a) is int or (isinstance(a, int) and not isinstance(a, bool)):
            if a >= 0:
                continue
        raise ConfigError(f"multi-index entries must be nonnegative integers, got {alpha!r}")
    return out


def grlex_key(alpha: Sequence[int]) -> tuple:
    """Sort key for graded-lexicographic order (total degree first)."""
    return (sum(alpha), tuple(alpha))


def multi_indices(dimension: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices in `dimension` variables with total degree <= max_degree,
    in graded-lexicographic order."""
    if dimension < 1:
        raise ConfigError("dimension must be >= 1")
    if max_degree < 0:
        raise ConfigError("max_degree must be >= 0")

    # by_degree[m]: the multi-indices with k entries and total degree m, in
    # lexicographic order; prepending a first entry a to each of those of
    # degree m - a, a = 0, 1, ..., keeps that order for k + 1 entries.
    by_degree = [[(m,)] for m in range(max_degree + 1)]
    for _ in range(dimension - 1):
        by_degree = [[(a,) + rest for a in range(m + 1) for rest in by_degree[m - a]]
                     for m in range(max_degree + 1)]
    return [alpha for same_degree in by_degree for alpha in same_degree]


def format_rational(q: RationalLike) -> str:
    """Serialize a rational as "p/q" in lowest terms with q > 0. The parts go
    through Decimal: same digits as str(int), without its 4300-digit limit."""
    f = Fraction(q)
    return f"{_int_to_decimal(f.numerator)}/{_int_to_decimal(f.denominator)}"


# Below this many bits Decimal(n) converts an int directly, fast enough.
_DIRECT_BITS = 1024


def _int_to_decimal(n: int) -> Decimal:
    """Decimal(n) by divide and conquer: n = hi 2^k + lo with k half the bits,
    each half converted the same way and joined in an exact context, with
    each power 2^k built once. Decimal(n) alone takes time quadratic in the
    digits (28 s for the 1.26 million digits of 16^(2^20) on a 2-vCPU x86-64
    machine, against 0.2 s here); this route multiplies through libmpdec's
    fast products, as CPython 3.12's int-to-Decimal conversion does."""
    if n.bit_length() <= _DIRECT_BITS:
        return Decimal(n)
    two_powers: dict[int, Decimal] = {}

    def two_power(k: int) -> Decimal:
        if k not in two_powers:
            two_powers[k] = (Decimal(2) ** k if k <= _DIRECT_BITS
                             else two_power(k // 2) * two_power(k - k // 2))
        return two_powers[k]

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _DIRECT_BITS:
            return Decimal(m)
        k = bits // 2
        hi = m >> k
        return convert(hi, bits - k) * two_power(k) + convert(m - (hi << k), k)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        out = convert(abs(n), n.bit_length())
    return out.copy_negate() if n < 0 else out


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


_FRACTION_ZERO = Fraction(0)


@dataclass(frozen=True)
class QComplex:
    """Gaussian rational: complex number with Fraction real and imaginary parts."""

    re: Fraction = _FRACTION_ZERO
    im: Fraction = _FRACTION_ZERO

    @staticmethod
    def from_value(x: ScalarLike) -> "QComplex":
        if isinstance(x, QComplex):
            return x
        if type(x) is int and x == 1:
            return QC_ONE
        return QComplex(_as_fraction(x), _FRACTION_ZERO)

    def __add__(self, other: ScalarLike) -> "QComplex":
        o = QComplex.from_value(other)
        return QComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other: ScalarLike) -> "QComplex":
        if type(other) is int:
            return QComplex(self.re * other, self.im * other)
        o = QComplex.from_value(other)
        return QComplex(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other) -> bool:
        # ints and Fractions, like the parts, are in lowest terms, so equal
        # values have equal numerators and denominators: compared directly,
        # without Fraction.__eq__'s numbers.Rational check
        if isinstance(other, (Fraction, int)) and not isinstance(other, bool):
            re = self.re
            return (self.im.numerator == 0 and re.numerator == other.numerator
                    and re.denominator == other.denominator)
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        # as __eq__ does, a value with zero imaginary part stands for its
        # real part, so it hashes as that int or Fraction
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}


QC_ONE = QComplex(Fraction(1))


class Polynomial:
    """Sparse polynomial in several complex variables with QComplex coefficients.

    Terms are stored as a dict mapping multi-index to coefficient; zero
    coefficients are never stored.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping[MultiIndex, ScalarLike] | None = None):
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        self.dimension = dimension
        clean: dict[MultiIndex, QComplex] = {}
        for alpha, c in (terms or {}).items():
            a = validate_multi_index(alpha)
            if len(a) != dimension:
                raise ConfigError(f"multi-index {a} does not match dimension {dimension}")
            qc = QComplex.from_value(c)
            if not qc.is_zero():
                clean[a] = qc
        self.terms = clean

    @classmethod
    def monomial(cls, alpha: Sequence[int], coeff: ScalarLike = 1) -> "Polynomial":
        a = validate_multi_index(alpha)
        p = cls(len(a))
        qc = QComplex.from_value(coeff)
        if not qc.is_zero():
            p.terms[a] = qc
        return p

    @classmethod
    def _unit_monomial(cls, alpha: MultiIndex) -> "Polynomial":
        """z^alpha with coefficient 1, for an alpha that is already a valid
        multi-index tuple (as multi_indices makes them): not checked again."""
        p = object.__new__(cls)
        p.dimension = len(alpha)
        p.terms = {alpha: QC_ONE}
        return p

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention here."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def sorted_terms(self) -> list[tuple[MultiIndex, QComplex]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def __repr__(self) -> str:
        parts = [f"{c.to_json()}*z^{a}" for a, c in self.sorted_terms()]
        body = " + ".join(parts) if parts else "0"
        return f"Polynomial(dim={self.dimension}, {body})"
