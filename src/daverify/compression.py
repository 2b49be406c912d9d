"""Finite sections of multiplication operators on H^2_d.

The compression of M_phi to the span of monomials of degree <= N is a
rectangular matrix in the normalized monomial basis e_alpha = z^alpha /
||z^alpha||; its top singular value lower-bounds the multiplier norm of phi.
Computed by power iteration on the Gram matrix with a deterministic start,
no general-purpose eigensolver involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import ConfigError, MultiIndex, Polynomial, multi_indices
from .norms import disc_map_scale, monomial_norm_sq, r_power_norm_sq


@dataclass(frozen=True)
class Section:
    """A matrix stored as its nonzero entries: values[k] at (rows[k],
    cols[k]), in row-major order; every other entry is zero."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    ndim = 2

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def size(self) -> int:
        """The number of stored entries."""
        return len(self.values)

    @classmethod
    def from_dense(cls, A: np.ndarray) -> Section:
        if A.ndim != 2:
            raise ConfigError("need a matrix")
        # as np.nonzero(A), row-major, but in a quarter of its time
        rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
        return cls(A.shape, rows, cols, A[rows, cols])

    def column(self, j: int) -> np.ndarray:
        """Column j as a dense vector."""
        v = np.zeros(self.shape[0], dtype=self.dtype)
        at = self.cols == j
        v[self.rows[at]] = self.values[at]
        return v

    def toarray(self) -> np.ndarray:
        A = np.zeros(self.shape, dtype=self.dtype)
        A[self.rows, self.cols] = self.values
        return A


@dataclass(frozen=True)
class MultMatrix:
    """Matrix of M_phi from degrees <= N into degrees <= N + deg(phi).

    entry[beta, alpha] = phi_{beta - alpha} * sqrt(nu(beta) / nu(alpha))
    with nu the squared monomial norm; the square root converts between the
    normalized bases on either side. `entries` stores one entry per column
    and term of phi, float64 when every coefficient of phi is real (as for
    r), complex128 otherwise.
    """

    phi: Polynomial
    d: int
    N: int
    entries: Section
    columns: tuple[MultiIndex, ...]
    rows: tuple[MultiIndex, ...]

    def section(self, n: int) -> Section:
        """The entries of the degree-n section, 0 <= n <= N: the leading
        block, since both bases list the multi-indices in grlex order."""
        if not 0 <= n <= self.N:
            raise ConfigError(f"section N must be in [0, {self.N}], got {n}")
        shape = _section_shape(self.phi, n)
        A = self.entries
        keep = (A.rows < shape[0]) & (A.cols < shape[1])
        return Section(shape, A.rows[keep], A.cols[keep], A.values[keep])


def _section_shape(phi: Polynomial, N: int) -> tuple[int, int]:
    """The numbers of multi-indices of degree <= N + deg(phi) and <= N."""
    d = phi.dimension
    return math.comb(N + phi.degree() + d, d), math.comb(N + d, d)


# The largest section, in rows x cols: r's at d = 4 and N = 12. Assembly
# takes the exact squared norm of every row and column multi-index
# (`monomial_norm_sq`, cached) and their index tuples; the stored entries
# are only one per column and term of phi.
MAX_SECTION_ENTRIES = 4845 * 1820


def mult_matrix(phi: Polynomial, N: int) -> MultMatrix:
    """Assemble the finite section of M_phi in the normalized monomial
    basis; one of more than MAX_SECTION_ENTRIES entries is refused."""
    if N < 0 or math.prod(_section_shape(phi, N)) > MAX_SECTION_ENTRIES:
        raise ConfigError(f"section N = {N} must be >= 0, with at most "
                          f"{MAX_SECTION_ENTRIES} entries")
    d = phi.dimension
    cols = multi_indices(d, N)
    rows = multi_indices(d, N + phi.degree())
    row_pos = {beta: i for i, beta in enumerate(rows)}
    # A real phi needs no imaginary half: float(c.re) * weight is exactly
    # the real part of complex(c) * weight.
    real = all(c.im == 0 for c in phi.terms.values())
    terms = [(gamma, float(c.re) if real else complex(c)) for gamma, c in phi.terms.items()]
    at_row, at_col, values = [], [], []
    for j, alpha in enumerate(cols):
        nu_alpha = monomial_norm_sq(alpha)
        for gamma, c in terms:
            beta = tuple(a + g for a, g in zip(alpha, gamma))
            at_row.append(row_pos[beta])
            at_col.append(j)
            values.append(c * math.sqrt(float(monomial_norm_sq(beta) / nu_alpha)))
    order = np.lexsort((at_col, at_row))  # row-major
    entries = Section((len(rows), len(cols)), np.array(at_row, dtype=np.intp)[order],
                      np.array(at_col, dtype=np.intp)[order],
                      np.array(values, dtype=np.float64 if real else np.complex128)[order])
    return MultMatrix(phi=phi, d=d, N=N, entries=entries,
                      columns=tuple(cols), rows=tuple(rows))


# Relative eigen-residual at which power iteration stops, and its step cap.
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 20_000


def top_singular_value(A: Section | np.ndarray) -> float:
    """Largest singular value by power iteration on the Gram matrix A* A.

    Deterministic: starts from the normalized all-ones vector, in A's own
    dtype (a real A is never cast to complex), and stops when
    the eigen-residual ||A*A v - lambda v|| drops below _POWER_TOL * lambda,
    or after _POWER_MAX_ITER steps. The Rayleigh quotient is then accurate
    to about the residual squared over the spectral gap, so the returned
    sigma is converged well past _POWER_TOL.

    The products with A and A* run on A's nonzero entries alone, summed in
    row-major order; a dense A is first reduced to them
    (`Section.from_dense`). Where each row and each column holds at most
    one nonzero, as for a monomial phi, every entry of a product is one
    rounded product, as in a dense product, which only adds zeros to it.
    """
    if not isinstance(A, Section):
        A = Section.from_dense(A)
    nrows, ncols = A.shape
    if nrows == 0 or ncols == 0:
        return 0.0
    rows, cols, entries = A.rows, A.cols, A.values
    adjoint = entries.conj()
    dtype = np.result_type(A.dtype, np.float64)
    v = np.ones(ncols, dtype=dtype) / math.sqrt(ncols)
    lam = 0.0
    for _ in range(_POWER_MAX_ITER):
        w = np.zeros(nrows, dtype=dtype)
        np.add.at(w, rows, entries * v[cols])  # A v
        u = np.zeros(ncols, dtype=dtype)
        np.add.at(u, cols, adjoint * w[rows])  # A* A v
        lam = float(np.real(np.vdot(v, u)))
        residual = float(np.linalg.norm(u - lam * v))
        if residual <= _POWER_TOL * max(lam, 1e-300):
            break
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return 0.0
        v = u / nu
    return math.sqrt(max(lam, 0.0))


def compression_norm(phi: Polynomial, N: int) -> float:
    """Top singular value of the degree-N section of M_phi; a lower bound
    for the multiplier norm, nondecreasing in N."""
    return top_singular_value(mult_matrix(phi, N).entries)


def diagonal_shift_weights(d: int, N: int) -> list[float]:
    """Weights of the diagonal orbit of M_r: the entry taking (z_1...z_d)^n
    to (z_1...z_d)^(n+1) in the normalized basis, for n = 0..N.

    Equals sqrt(||r^(n+1)||^2 / ||r^n||^2) = sqrt(a_n / a_{n+1}); its maximum
    over any section is attained at n = 0.
    """
    if N < 0:
        raise ConfigError("N must be >= 0")
    return [
        math.sqrt(float(r_power_norm_sq(d, n + 1) / r_power_norm_sq(d, n)))
        for n in range(N + 1)
    ]


def r_polynomial(d: int) -> Polynomial:
    """The sphere-adapted monomial r: 2 z1 z2 for d = 2, 16 z1 z2 z3 z4 for d = 4."""
    return Polynomial.monomial((1,) * d, disc_map_scale(d))
