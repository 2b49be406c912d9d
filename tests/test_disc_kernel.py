"""Weight sequence a_n, the binomial identity, and kernel sums with tails."""

import math
from fractions import Fraction

import numpy as np
import pytest

from daverify import checks
from daverify.disc_kernel import (
    KernelSequence,
    build_kernel_sequence,
    dirichlet_coeff_check,
    float_coeff_sequence,
)
from daverify.norms import r_power_norm_sq


class TestSequence:
    def test_frozen_d2_values(self):
        seq = build_kernel_sequence(2, 5)
        assert list(seq.a_exact) == [Fraction(1), Fraction(1, 2), Fraction(3, 8),
                                     Fraction(5, 16), Fraction(35, 128), Fraction(63, 256)]

    def test_frozen_d4_values(self):
        seq = build_kernel_sequence(4, 2)
        assert list(seq.a_exact) == [Fraction(1), Fraction(3, 32), Fraction(315, 8192)]

    def test_inverse_of_r_power_norm(self):
        for d in (2, 4):
            seq = build_kernel_sequence(d, 40)
            for n in range(41):
                assert seq.a_exact[n] * r_power_norm_sq(d, n) == 1

    def test_float_shadow_matches(self):
        seq = build_kernel_sequence(4, 60)
        for n in (0, 30, 60):
            assert seq.csv_rows()[n][2] == float(seq.a_exact[n])

    def test_strictly_decreasing_positive(self):
        for d in (2, 4):
            a = float_coeff_sequence(d, 1000)
            assert np.all(a > 0)
            assert np.all(np.diff(a) < 0)

    def test_float_recurrence_matches_exact(self):
        for d in (2, 4):
            exact = build_kernel_sequence(d, 200)
            sweep = float_coeff_sequence(d, 200)
            assert sweep[200] == pytest.approx(float(exact.a_exact[200]), rel=1e-12)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            build_kernel_sequence(3, 5)

    def test_serialization(self):
        seq = build_kernel_sequence(2, 2)
        rows = seq.csv_rows()
        assert [row[:2] for row in rows] == [[0, "1/1"], [1, "1/2"], [2, "3/8"]]


def closed_forms(n):
    return [r_power_norm_sq(2, k) for k in range(n + 1)]


class TestDirichletIdentity:
    def test_holds_through_200(self):
        # one call checks every k <= n along one running binomial product
        assert dirichlet_coeff_check(closed_forms(200))
        assert dirichlet_coeff_check(closed_forms(0)) and dirichlet_coeff_check(closed_forms(1))

    def test_one_wrong_closed_form_fails(self):
        norm_sq = closed_forms(50)
        norm_sq[37] += Fraction(1, 2 ** 60)
        assert not dirichlet_coeff_check(norm_sq)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dirichlet_coeff_check([])


class TestPartialSums:
    """The partial-sum rows of checks.kernel_table."""

    @staticmethod
    def row(dim, name):
        _config, rows, _tables = checks.kernel_table(dim=dim, n=0)
        return next(row for row in rows if row["check"] == name)

    def test_d4_converges_with_shrinking_tail(self):
        row = self.row(4, "kernel/partial-sum-converging")
        assert row["pass"] and row["tail_estimate"] < 0.1
        assert row["partial"] == pytest.approx(1.2777, abs=2e-3)
        # the estimate covers what the terms past N = 1000 add up to 10^4
        rest = float(np.sum(float_coeff_sequence(4, 10_000)[1001:]))
        assert 0.0 < rest < min(row["tail_estimate"], 2e-2)

    def test_d2_diverges_like_sqrt(self):
        row = self.row(2, "kernel/partial-sum-diverging-sqrt")
        assert row["pass"]
        assert row["doubling_ratio"] == pytest.approx(math.sqrt(2.0), abs=0.02)


class TestKernelEval:
    """The kernel partial sum K_N(x) = sum_{n<=N} a_n x^n from the weights."""

    @pytest.mark.parametrize("rho", [0.1 * k for k in range(1, 10)])
    def test_d2_matches_closed_form_within_tail(self, rho):
        # truncation chosen so the geometric tail bound dominates roundoff
        N = max(4, math.ceil(8.0 / max(0.02, -math.log10(rho * rho))))
        seq = build_kernel_sequence(2, N)
        x = rho * rho
        value = sum(float(a) * x ** n for n, a in enumerate(seq.a_exact))
        # a_n is nonincreasing, so the tail is at most a_{N+1} x^{N+1} / (1 - x)
        a_next = float(float_coeff_sequence(2, N + 1)[N + 1])
        tail_bound = a_next * x ** (N + 1) / (1.0 - x)
        closed = (1.0 - x) ** -0.5
        assert abs(value - closed) <= tail_bound
        assert tail_bound > 1e-14
