"""The weighted-disc kernel sequence a_n = 1/||r(z)^n||^2, exact and in float.

For d = 2 the weights are the central binomial ratios (2n)! / (4^n (n!)^2),
i.e. the Taylor coefficients of (1 - x)^(-1/2), so the disc space is a
Dirichlet-type space with a divergent kernel on the boundary diagonal.
For d = 4 the weights decay like (n+1)^(-3/2) and the kernel sum converges
everywhere on the closed disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import ConfigError, format_rational
from .norms import _kernel_weights, disc_map_scale, r_power_norm_sq


@dataclass(frozen=True)
class KernelSequence:
    """The exact weight sequence a_n, n = 0..N."""

    d: int
    N: int
    a_exact: tuple[Fraction, ...]

    def csv_rows(self) -> list[list]:
        """Rows (n, a_exact, a_float, a_times_power) where a_float is a_n in
        float and the last column is a_n (n+1)^((d-1)/2), the bounded
        normalization."""
        rows = []
        p = (self.d - 1) / 2.0
        for n, a in enumerate(self.a_exact):
            a_float = float(a)
            rows.append([n, format_rational(a), a_float, a_float * (n + 1.0) ** p])
        return rows


# The longest exact sequence built (a ratio of 40,000-bit integers at d = 4).
MAX_KERNEL_N = 5000


def build_kernel_sequence(d: int, N: int) -> KernelSequence:
    """Exact a_n = 1/r_power_norm_sq(d, n) for n <= N, N <= MAX_KERNEL_N.

    The exact values come from the one-step recurrence of
    norms._kernel_weights; a spot check against the closed form guards it.
    """
    disc_map_scale(d)  # ConfigError unless d is supported
    if not 0 <= N <= MAX_KERNEL_N:
        raise ConfigError(f"N must be in [0, {MAX_KERNEL_N}], got {N}")
    a = _kernel_weights(d, N + 1)
    if a[min(N, 3)] * r_power_norm_sq(d, min(N, 3)) != 1:
        raise AssertionError("kernel sequence recurrence drifted from the closed form")
    return KernelSequence(d=d, N=N, a_exact=tuple(a))


def float_coeff_sequence(d: int, n_max: int) -> np.ndarray:
    """a_n for n = 0..n_max in float64 via the same recurrence, O(n_max)."""
    disc_map_scale(d)  # ConfigError unless d is supported
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    out = np.empty(n_max + 1, dtype=np.float64)
    a = 1.0
    dd = float(d ** d)
    for n in range(n_max + 1):
        out[n] = a
        num = 1.0
        for j in range(1, d + 1):
            num *= d * n + j
        a *= num / (dd * (n + 1.0) ** d)
    return out


def dirichlet_coeff_check(norm_sq: Sequence[Fraction]) -> bool:
    """For d = 2: 1/norm_sq[k] equals (-1)^k * binom(-1/2, k), the Taylor
    coefficient of (1 - x)^(-1/2), for every k < len(norm_sq), where
    norm_sq[k] is the closed form r_power_norm_sq(2, k). The binomial side is
    one running product binom(-1/2, k + 1) = binom(-1/2, k) * (-1/2 - k) / (k + 1)."""
    if not norm_sq:
        raise ConfigError("norm_sq must hold at least ||r^0||^2")
    binom = Fraction(1)
    for k, q in enumerate(norm_sq):
        if (-binom if k % 2 else binom) * q != 1:
            return False
        binom *= Fraction(-1 - 2 * k, 2 * (k + 1))
    return True
