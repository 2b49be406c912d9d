"""Finite sections of multiplication operators and their singular values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from daverify.compression import (
    compression_norm,
    diagonal_shift_weights,
    mult_matrix,
    r_polynomial,
    top_singular_value,
)
from daverify.exact import Polynomial, QComplex
from daverify.norms import monomial_norm_sq, r_power_norm_sq


class TestMultMatrix:
    def test_identity_multiplier(self):
        M = mult_matrix(Polynomial(2, {(0, 0): 1}), 2)
        assert M.entries.shape == (6, 6)
        assert np.allclose(M.entries, np.eye(6))

    def test_single_shift_entry(self):
        # M_{z1} on the constant: entry is sqrt(nu(1,0)/nu(0,0)) = 1
        M = mult_matrix(Polynomial.monomial((1, 0)), 0)
        assert M.entries.shape == (3, 1)
        row = M.rows.index((1, 0))
        assert M.entries[row, 0] == pytest.approx(1.0)

    def test_r_on_diagonal_basis_vector(self):
        # M_r e_{(0,0)} has a single entry sqrt(1/a_1) = sqrt(2) at (1,1)
        M = mult_matrix(r_polynomial(2), 1)
        col = M.columns.index((0, 0))
        row = M.rows.index((1, 1))
        assert M.entries[row, col] == pytest.approx(math.sqrt(2.0))
        assert np.count_nonzero(M.entries[:, col]) == 1

    def test_entries_weighted_by_norm_ratio(self):
        phi = Polynomial(2, {(1, 0): 2, (0, 2): Fraction(1, 3)})
        M = mult_matrix(phi, 2)
        col = M.columns.index((1, 1))
        r1 = M.rows.index((2, 1))
        expect = 2.0 * math.sqrt(float(monomial_norm_sq((2, 1)) / monomial_norm_sq((1, 1))))
        assert M.entries[r1, col] == pytest.approx(expect)
        r2 = M.rows.index((1, 3))
        expect2 = (1.0 / 3.0) * math.sqrt(float(monomial_norm_sq((1, 3)) / monomial_norm_sq((1, 1))))
        assert M.entries[r2, col] == pytest.approx(expect2)

    def test_real_phi_gives_real_entries(self):
        for d in (2, 4):
            assert mult_matrix(r_polynomial(d), 2).entries.dtype == np.float64

    def test_non_real_phi_stays_complex(self):
        # 2i z1 z2: the imaginary half is bit-equal to the real matrix of 2 z1 z2
        M = mult_matrix(Polynomial.monomial((1, 1), QComplex(Fraction(0), Fraction(2))), 4)
        assert M.entries.dtype == np.complex128
        assert np.array_equal(M.entries.imag, mult_matrix(r_polynomial(2), 4).entries)
        assert not M.entries.real.any()
        ref = float(np.linalg.svd(M.entries, compute_uv=False)[0])
        assert top_singular_value(M.entries) == pytest.approx(ref, rel=1e-9)


class TestTopSingularValue:
    def test_identity(self):
        assert top_singular_value(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_against_lapack_svd_oracle(self):
        rng = np.random.default_rng(31)
        for shape in ((6, 4), (9, 9), (3, 8)):
            A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ours = top_singular_value(A)
            ref = float(np.linalg.svd(A, compute_uv=False)[0])
            assert ours == pytest.approx(ref, rel=1e-9)

    def test_complex_matches_svd_and_conjugate_copy_loop(self):
        # the same power iteration with A* formed explicitly as a copy
        rng = np.random.default_rng(41)
        A = rng.standard_normal((40, 25)) + 1j * rng.standard_normal((40, 25))
        v = np.ones(25, dtype=np.complex128) / math.sqrt(25)
        for _ in range(20_000):
            u = A.conj().T @ (A @ v)
            lam = float(np.real(np.vdot(v, u)))
            if float(np.linalg.norm(u - lam * v)) <= 1e-12 * lam:
                break
            v = u / float(np.linalg.norm(u))
        reference = math.sqrt(lam)
        ours = top_singular_value(A)
        assert ours == pytest.approx(float(np.linalg.svd(A, compute_uv=False)[0]), abs=1e-10)
        assert abs(ours - reference) <= 4 * math.ulp(reference)

    def test_real_matrix_matches_its_complex_copy(self):
        A = mult_matrix(r_polynomial(4), 4).entries
        real, cplx = top_singular_value(A), top_singular_value(A.astype(complex))
        assert abs(real - cplx) <= 4 * math.ulp(cplx)

    def test_zero_matrix(self):
        assert top_singular_value(np.zeros((4, 3))) == 0.0

    @staticmethod
    def dense(A):
        """The power iteration written out with dense BLAS products, the same
        start, stopping rule and updates as top_singular_value."""
        v = np.ones(A.shape[1], dtype=np.result_type(A.dtype, np.float64)) / math.sqrt(A.shape[1])
        for _ in range(20_000):
            u = (A.T @ (A @ v).conj()).conj()
            lam = float(np.real(np.vdot(v, u)))
            if float(np.linalg.norm(u - lam * v)) <= 1e-12 * max(lam, 1e-300):
                break
            v = u / float(np.linalg.norm(u))
        return math.sqrt(max(lam, 0.0))

    @pytest.mark.parametrize("d, N", [(2, 0), (2, 1), (2, 8), (2, 40), (4, 0), (4, 4), (4, 12)])
    def test_r_sections_equal_the_dense_iteration_bit_for_bit(self, d, N):
        # one nonzero per row and column: each dense sum adds zeros to one product
        A = mult_matrix(r_polynomial(d), N).entries
        assert top_singular_value(A).hex() == self.dense(A).hex()

    def test_complex_multi_term_within_1e_12_of_the_dense_iteration(self):
        phi = Polynomial(2, {(1, 0): QComplex(Fraction(1, 2), Fraction(1, 3)),
                             (0, 1): QComplex(Fraction(-1), Fraction(2, 5)),
                             (1, 1): QComplex(Fraction(0), Fraction(3))})
        for N in (1, 4, 10):
            A = mult_matrix(phi, N).entries
            assert A.dtype == np.complex128
            assert abs(top_singular_value(A) - self.dense(A)) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 7))
        assert top_singular_value(A) == top_singular_value(A.copy())


class TestCompressionNorm:
    def test_d2_value_is_sqrt_two(self):
        for N in (1, 2, 4):
            assert compression_norm(r_polynomial(2), N) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_d4_value(self):
        assert compression_norm(r_polynomial(4), 2) == pytest.approx(math.sqrt(32.0 / 3.0), abs=1e-9)

    def test_nondecreasing_in_section(self):
        for d in (2, 4):
            phi = r_polynomial(d)
            vals = [compression_norm(phi, N) for N in (0, 1, 2, 4)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_exceeds_sup_norm_witness(self):
        # sup of |r| on the sphere is 1, the section norm already beats it
        assert compression_norm(r_polynomial(2), 1) > 1.0 + 0.4

    def test_matches_lapack_oracle(self):
        M = mult_matrix(r_polynomial(2), 4)
        ref = float(np.linalg.svd(M.entries, compute_uv=False)[0])
        assert compression_norm(r_polynomial(2), 4) == pytest.approx(ref, rel=1e-9)

    def test_unitary_column_invariance(self):
        # multiplying phi by a unimodular constant cannot change the norm
        phi = r_polynomial(2)
        scaled = Polynomial.monomial((1, 1), -2)
        assert compression_norm(scaled, 3) == pytest.approx(
            compression_norm(phi, 3), abs=1e-11)


class TestDiagonalWeights:
    def test_frozen_d2_values(self):
        w = diagonal_shift_weights(2, 3)
        assert w[0] == pytest.approx(math.sqrt(2.0))
        assert w[1] == pytest.approx(math.sqrt(4.0 / 3.0))
        assert w == sorted(w, reverse=True)

    def test_d4_head(self):
        w = diagonal_shift_weights(4, 2)
        assert w[0] == pytest.approx(math.sqrt(32.0 / 3.0))

    def test_compression_equals_max_weight(self):
        for d in (2, 4):
            for N in (1, 2, 3):
                sigma = compression_norm(r_polynomial(d), N)
                assert sigma == pytest.approx(max(diagonal_shift_weights(d, N)), abs=1e-9)

    def test_bilinear_bound(self):
        # |<M v, w>| <= sigma ||v|| ||w|| is attained at v = e_0: M e_0 is r in
        # the normalized basis, so ||M e_0|| = ||r||, and no other basis
        # vector is stretched as far
        for d in (2, 4):
            M = mult_matrix(r_polynomial(d), 3).entries
            sigma = top_singular_value(M)
            stretch = np.linalg.norm(M, axis=0)
            assert stretch[0] == pytest.approx(sigma, abs=1e-12)
            assert stretch[0] == pytest.approx(math.sqrt(float(r_power_norm_sq(d, 1))), abs=1e-12)
            assert np.all(stretch[1:] < stretch[0])
