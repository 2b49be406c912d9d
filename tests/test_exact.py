"""Exact arithmetic core: Gaussian rationals, multi-indices, polynomials."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from daverify.exact import (
    Polynomial,
    QComplex,
    format_rational,
    grlex_key,
    multi_indices,
    validate_multi_index,
)
from daverify.norms import disc_map_scale

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=30)
qcomplexes = st.builds(QComplex, fractions, fractions)


class Ratio(Fraction):
    pass


# ints, Fractions built from unreduced parts and a Fraction subclass
rationals = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    fractions,
    st.builds(lambda n, d, k: Fraction(n * k, d * k),
              st.integers(-30, 30), st.integers(1, 30), st.integers(2, 9)),
    st.builds(Ratio, st.integers(-30, 30), st.integers(1, 30)),
)


def parts(x) -> tuple[Fraction, Fraction]:
    """x as its real and imaginary parts, the definition of QComplex equality."""
    return (x.re, x.im) if isinstance(x, QComplex) else (Fraction(x), Fraction(0))


class TestRationalSerialization:
    def test_format_lowest_terms_positive_denominator(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(-3, 6)) == "-1/2"
        assert format_rational(Fraction(5)) == "5/1"
        assert format_rational(0) == "0/1"

    def test_more_digits_than_int_str_allows(self):
        # str(int) refuses more than 4300 digits; a report must not
        q = Fraction(7 ** 6000 + 2, 3 ** 9100)
        p_str, q_str = format_rational(q).split("/")
        assert len(p_str) > 4300 and len(q_str) > 4300
        assert Fraction(int(Decimal(p_str)), int(Decimal(q_str))) == q
        assert p_str.endswith(f"{q.numerator % 10 ** 20:020d}")
        assert format_rational(-q).startswith("-" + p_str[:50])

    def test_large_parts_match_str_of_int(self):
        # the divide-and-conquer conversion against str() with its digit
        # limit lifted, across the direct-conversion threshold and past it
        values = [0, 1, -1, 10 ** 19, -(2 ** 1024), 2 ** 1024 + 1, 2 ** 2049 - 1,
                  -(7 ** 6000 + 2), 3 ** 20_000, 16 ** 2 ** 14 - 1, -(10 ** 30_000)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for n in values:
                assert format_rational(n) == f"{n}/1"
                assert format_rational(Fraction(1, abs(n) + 1)) == f"1/{abs(n) + 1}"
        finally:
            sys.set_int_max_str_digits(limit)

    @given(fractions)
    def test_round_trip(self, q):
        # a report's "p/q" strings read back exactly
        assert Fraction(format_rational(q)) == q


class TestQComplex:
    def test_examples(self):
        i = QComplex(Fraction(0), Fraction(1))
        assert i * i == QComplex(Fraction(-1))
        assert (i * i.conjugate()).re == 1

    def test_equality_against_rationals(self):
        assert QComplex(Fraction(1, 2)) == Fraction(1, 2)
        assert QComplex(Fraction(1, 2), Fraction(1)) != Fraction(1, 2)
        # a bool is not taken for the int it subclasses
        for b in (False, True):
            q = QComplex(Fraction(int(b)))
            assert not q == b and q != b and not b == q and b != q

    @given(rationals, fractions, st.sampled_from([0, Fraction(1, 7)]))
    def test_equality_with_rationals_is_part_by_part(self, x, im, shift):
        for q in (QComplex(Fraction(x) + shift), QComplex(Fraction(x) + shift, im)):
            expected = parts(q) == parts(x)
            assert (q == x) is expected and (x == q) is expected
            assert (q != x) is not expected and (x != q) is not expected

    @given(qcomplexes, qcomplexes)
    def test_equality_with_qcomplex_is_part_by_part(self, a, b):
        for other in (b, QComplex(a.re, a.im), QComplex(a.re, a.im + 1)):
            expected = parts(a) == parts(other)
            assert (a == other) is expected and (a != other) is not expected

    def test_hash_agrees_with_equality(self):
        assert {QComplex(Fraction(1, 2)), Fraction(1, 2)} == {Fraction(1, 2)}
        assert len({QComplex(Fraction(3)), 3}) == 1
        assert {QComplex(Fraction(1, 2), Fraction(1)): "z"}[QComplex(Fraction(1, 2), Fraction(1))] == "z"

    @given(fractions)
    def test_real_value_hashes_as_its_real_part(self, q):
        assert hash(QComplex(q)) == hash(q)

    @given(qcomplexes, qcomplexes)
    def test_mul_commutes_and_conjugation_distributes(self, a, b):
        assert a * b == b * a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(qcomplexes)
    def test_int_product_matches_general_path(self, a):
        # __mul__ scales by an int without converting it to a QComplex
        for d in (2, 4):
            c = disc_map_scale(d)
            for n in (0, 1, -1, 7, -12, c, -c, c ** 60, -(c ** 200)):
                general = a * QComplex(Fraction(n))
                for prod in (a * n, n * a):
                    assert (prod.re, prod.im) == (general.re, general.im)
                    assert type(prod.re) is Fraction and type(prod.im) is Fraction

    def test_json_round_trip(self):
        a = QComplex(Fraction(-2, 3), Fraction(5, 7))
        js = a.to_json()
        assert QComplex(Fraction(js["re"]), Fraction(js["im"])) == a

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QComplex.from_value(0.5)
        with pytest.raises(TypeError):
            QComplex(Fraction(1)) * True


class TestMultiIndex:
    def test_validation(self):
        assert validate_multi_index([1, 0, 2]) == (1, 0, 2)

        class Exponent(int):
            pass

        # an int subclass other than bool is still an integer
        assert validate_multi_index((Exponent(2), 0)) == (2, 0)
        for bad in ((1, -1), (True, 0), (1.0, 0)):
            with pytest.raises(ValueError):
                validate_multi_index(bad)
            with pytest.raises(ValueError):
                Polynomial.monomial(bad)
        with pytest.raises(ValueError):
            Polynomial.monomial(())

    def test_graded_lex_order(self):
        got = multi_indices(2, 2)
        assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_counts_match_stars_and_bars(self):
        import math

        for d in (1, 2, 3, 4):
            for cap in (0, 3, 5):
                assert len(multi_indices(d, cap)) == math.comb(cap + d, d)

    def test_sorted_by_key(self):
        import math

        for d in range(1, 6):
            for cap in range(9):
                idx = multi_indices(d, cap)
                assert idx == sorted(idx, key=grlex_key)
                assert len(idx) == math.comb(cap + d, d)

    def test_rejects_bad_dimension_and_degree(self):
        with pytest.raises(ValueError):
            multi_indices(0, 3)
        with pytest.raises(ValueError):
            multi_indices(2, -1)


class TestPolynomial:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in p.terms
        assert p.degree() == 1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 0, 0): 1})

    def test_unit_monomial_equals_checked_monomial(self):
        for d, cap in ((4, 12), (2, 30)):
            for alpha in multi_indices(d, cap):
                fast, checked = Polynomial._unit_monomial(alpha), Polynomial.monomial(alpha)
                assert fast.dimension == checked.dimension == d
                assert fast.terms == checked.terms
                assert [(c.re, c.im) for c in fast.terms.values()] == [(1, 0)]
