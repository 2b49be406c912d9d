"""Monomial norms against an independent kernel-expansion oracle, the ring
map isometry, and the normalized asymptotics."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daverify.disc_kernel import float_coeff_sequence
from daverify.exact import Polynomial, QComplex, multi_indices
from daverify.norms import (
    _kernel_weights,
    _multinomial,
    compose_with_r,
    da_inner,
    disc_map_scale,
    extension_norm_check,
    isometry_check,
    monomial_norm_sq,
    r_power_norm_sq,
    stirling_ratio,
)


def kernel_expansion_oracle(d: int, m: int) -> dict[tuple, Fraction]:
    """Norms of degree-m monomials obtained with no factorial formula at all:
    expand <z, w>^m by enumerating all d^m coordinate assignments and count
    multiplicities. The reproducing property forces ||z^alpha||^2 to be the
    reciprocal of the multiplicity of alpha."""
    counts: dict[tuple, int] = {}
    for assignment in itertools.product(range(d), repeat=m):
        content = [0] * d
        for pos in assignment:
            content[pos] += 1
        key = tuple(content)
        counts[key] = counts.get(key, 0) + 1
    return {alpha: Fraction(1, mult) for alpha, mult in counts.items()}


class TestMonomialNorm:
    def test_frozen_examples(self):
        assert monomial_norm_sq((0, 0, 0, 0)) == 1
        assert monomial_norm_sq((1, 1)) == Fraction(1, 2)
        assert monomial_norm_sq((2, 1)) == Fraction(1, 3)
        assert monomial_norm_sq((1, 1, 1, 1)) == Fraction(1, 24)
        assert monomial_norm_sq((3,)) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_against_kernel_expansion_oracle(self, d):
        for m in range(7):
            oracle = kernel_expansion_oracle(d, m)
            for alpha, expected in oracle.items():
                assert monomial_norm_sq(alpha) == expected

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            monomial_norm_sq((1, -1))

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    def test_permutation_invariant_and_in_unit_interval(self, entries):
        alpha = tuple(entries)
        v = monomial_norm_sq(alpha)
        assert 0 < v <= 1
        assert v == monomial_norm_sq(tuple(sorted(entries)))


class TestDaInner:
    def test_monomials_are_orthogonal(self):
        p = Polynomial.monomial((2, 0))
        q = Polynomial.monomial((1, 1))
        assert da_inner(p, q).is_zero()

    def test_diagonal_gives_norm(self):
        p = Polynomial.monomial((2, 1), QComplex(Fraction(0), Fraction(3)))
        assert da_inner(p, p).re == 9 * Fraction(1, 3)

    def test_dimension_mismatch(self):
        # refused whether or not the one-term side's index is shared
        q = Polynomial(2, {(1, 0): 1, (0, 1): 1})
        for p in (Polynomial.monomial((1,)), Polynomial.monomial((1, 0, 0)),
                  Polynomial.monomial((5, 5, 5))):
            for args in ((p, q), (q, p)):
                with pytest.raises(ValueError):
                    da_inner(*args)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_one_term_side_matches_the_term_by_term_sum(self, d):
        # a one-term p, present in q or absent from it, against the sum
        # written out, in both argument orders
        rng = random.Random(10 + d)

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        alphas = multi_indices(d, 5)
        q = Polynomial(d, {a: QComplex(rational(), rational())
                           for a in rng.sample(alphas, len(alphas) // 2)})
        present = 0
        for alpha in alphas:
            p = Polynomial.monomial(alpha, QComplex(Fraction(2, 3), Fraction(-1, 5)))
            reference = QComplex()
            if alpha in q.terms:
                present += 1
                reference = p.terms[alpha] * q.terms[alpha].conjugate() * monomial_norm_sq(alpha)
            for inner in (da_inner(p, q), da_inner(q, p).conjugate()):
                assert (inner.re, inner.im) == (reference.re, reference.im)
        assert 0 < present < len(alphas)

    def test_no_shared_monomial_is_exact_zero(self):
        p = Polynomial(2, {(2, 0): QComplex(Fraction(1, 3), Fraction(-5, 7))})
        q = Polynomial(2, {(1, 1): QComplex(Fraction(2, 9)), (0, 2): QComplex(Fraction(4))})
        for inner in (da_inner(p, q), da_inner(q, p)):
            assert inner == 0
            assert inner.re.denominator == 1 and inner.im.denominator == 1

    def test_cancelling_sum_reduces_to_zero(self):
        # (1/3)(3)||z1^2||^2 + (1/2)(-4)||z1 z2||^2 = 1 - 4/4 = 0
        p = Polynomial(2, {(2, 0): QComplex(Fraction(1, 3)), (1, 1): QComplex(Fraction(1, 2))})
        q = Polynomial(2, {(2, 0): QComplex(Fraction(3)), (1, 1): QComplex(Fraction(-4))})
        inner = da_inner(p, q)
        assert inner.re == Fraction(0) and inner.re.denominator == 1
        assert inner.im == Fraction(0) and inner.im.denominator == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_qcomplex_reference(self, d):
        rng = random.Random(d)

        def rational():
            den = rng.randint(1, 9) if rng.random() < 0.7 else rng.randint(10**6, 10**9)
            return Fraction(rng.randint(-9, 9), den)

        def gaussian_rational():
            return QComplex(rational(), rational())

        alphas = multi_indices(d, 4)
        size = min(12, len(alphas))
        for _ in range(20):
            p = Polynomial(d, {a: gaussian_rational() for a in rng.sample(alphas, size)})
            q = Polynomial(d, {a: gaussian_rational() for a in rng.sample(alphas, size)})
            reference = QComplex()
            for alpha, c in p.terms.items():
                if alpha in q.terms:
                    reference = reference + c * q.terms[alpha].conjugate() * monomial_norm_sq(alpha)
            assert da_inner(p, q) == reference

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_conjugate_symmetry_and_positivity(self, alphas):
        terms = {a: QComplex(Fraction(i + 1, 2), Fraction(1 - i, 3))
                 for i, a in enumerate(alphas)}
        p = Polynomial(2, terms)
        q = Polynomial(2, {a: QComplex(Fraction(1), Fraction(i)) for i, a in enumerate(alphas)})
        assert da_inner(p, q) == da_inner(q, p).conjugate()
        self_prod = da_inner(p, p)
        assert self_prod.im == 0 and self_prod.re > 0


class TestRPowerNorm:
    def test_frozen_examples(self):
        assert r_power_norm_sq(2, 0) == 1
        assert r_power_norm_sq(2, 1) == 2
        assert r_power_norm_sq(4, 1) == Fraction(32, 3)
        # d^{dn} (n!)^d / (dn)! at d=2, n=2: 16*4/24
        assert r_power_norm_sq(2, 2) == Fraction(8, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_running_products_equal_factorial_formula(self, d):
        # the weights isometry_check and build_kernel_sequence use, against
        # the factorial formula
        inverses = [1 / a for a in _kernel_weights(d, 201)]
        assert inverses == [r_power_norm_sq(d, n) for n in range(201)]
        assert _kernel_weights(d, 0) == []

    def test_prime_exponent_multinomial_matches_factorials(self):
        cases = [(d, n) for d in range(1, 9) for n in range(301)]
        cases += [(d, n) for d in range(1, 9) for n in (997, 1000, 2187, 3000)]
        for d, n in cases:
            assert _multinomial(d, n) == math.factorial(d * n) // math.factorial(n) ** d
        # the sieve's m = d n < 2 edge
        assert _multinomial(4, 0) == _multinomial(1, 1) == 1

    def test_agrees_with_multinomial_route(self):
        for d in (2, 4):
            c = disc_map_scale(d)
            for n in range(6):
                direct = Fraction(c ** (2 * n)) * monomial_norm_sq((n,) * d)
                assert r_power_norm_sq(d, n) == direct

    def test_d1_is_constant_one(self):
        assert all(r_power_norm_sq(1, n) == 1 for n in range(20))


class TestStirlingRatio:
    def test_d1_identically_one(self):
        assert [stirling_ratio(1, n) for n in range(51)] == [1.0] * 51

    def test_limits_match_closed_forms(self):
        # ||r^n||^2 (n+1)^{(d-1)/2} -> (2 pi n)^{(d-1)/2} / ... concretely
        # sqrt(pi) for d=2 and (2 pi)^{3/2} / 2 for d=4, by Stirling.
        assert stirling_ratio(2, 40_000) == pytest.approx(math.sqrt(math.pi), rel=1e-4)
        assert stirling_ratio(4, 40_000) == pytest.approx((2 * math.pi) ** 1.5 / 2, rel=1e-4)

    def test_sweep_matches_exact_route(self):
        # the float a_n recurrence is the reciprocal of ||r^n||^2
        for d in (2, 4):
            a = float_coeff_sequence(d, 300)
            for n in (0, 1, 7, 150, 300):
                sweep = 1.0 / (a[n] * (n + 1.0) ** ((d - 1) / 2.0))
                assert sweep == pytest.approx(stirling_ratio(d, n), rel=1e-12)

    def test_matches_reduced_fraction_bit_for_bit(self):
        # true division of the unreduced terms must round exactly like
        # float() of the reduced factorial formula
        for d in (1, 2, 3, 4):
            for n in [*range(601), 3000]:
                exact = Fraction(d ** (d * n) * math.factorial(n) ** d, math.factorial(d * n))
                expected = float(exact) / float(n + 1) ** ((d - 1) / 2)
                assert stirling_ratio(d, n) == expected

    def test_input_guards(self):
        for d, n in ((0, 3), (2, -1)):
            with pytest.raises(ValueError):
                stirling_ratio(d, n)
            with pytest.raises(ValueError):
                r_power_norm_sq(d, n)

    def test_envelope_tightens(self):
        for d, limit in ((2, math.sqrt(math.pi)), (4, (2 * math.pi) ** 1.5 / 2)):
            n = np.arange(100, 10_001)
            vals = 1.0 / (float_coeff_sequence(d, 10_000)[100:] * (n + 1.0) ** ((d - 1) / 2.0))
            assert vals.min() > 0.9 * limit
            assert vals.max() < 1.1 * limit


class TestComposeAndIsometry:
    def test_compose_examples(self):
        p = compose_with_r([1, Fraction(1, 2)], 2)
        assert p.terms == {(0, 0): QComplex(Fraction(1)),
                           (1, 1): QComplex(Fraction(1))}
        q = compose_with_r([0, 0, 1], 4)
        assert q.terms == {(2, 2, 2, 2): QComplex(Fraction(256))}

    def test_compose_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            compose_with_r([1], 3)

    def test_isometry_frozen_examples(self):
        one = isometry_check([1], 2)
        assert one.equal and one.disc_norm_sq == 1
        for d in (2, 4):
            for coeffs in ([], [0]):
                rep = isometry_check(coeffs, d)
                assert rep.equal and rep.disc_norm_sq == 0 and rep.da_norm_sq == 0
        lin = isometry_check([0, 1], 4)
        assert lin.equal and lin.disc_norm_sq == Fraction(32, 3)

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                    min_size=1, max_size=8),
           st.sampled_from([2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_isometry_exact_on_random_rational_lists(self, coeffs, d):
        rep = isometry_check(coeffs, d)
        assert rep.equal

    def test_isometry_with_gaussian_rational_coeffs(self):
        coeffs = [QComplex(Fraction(1, 3), Fraction(-2, 5)),
                  QComplex(Fraction(0), Fraction(7, 2)),
                  QComplex(Fraction(-4), Fraction(1, 9))]
        for d in (2, 4):
            assert isometry_check(coeffs, d).equal


class TestExtension:
    def test_padding_preserves_norm(self):
        for d in (1, 2, 3):
            for alpha in multi_indices(d, 5):
                for d_prime in range(d, 5):
                    assert extension_norm_check(alpha, d_prime)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            extension_norm_check((1, 2, 3), 2)
