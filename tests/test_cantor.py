"""Cantor measure Fourier coefficients, weighted sums, and Riesz energy."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daverify import _workers, cantor
from daverify.cantor import (
    MAX_ENERGY_LEVEL,
    MAX_IFS_LEVEL,
    MAX_TABLE_N,
    atoms,
    fourier_table_ifs,
    fourier_table_recursion,
    recursion_depth,
    riesz_energy,
    support_measure_zero,
    weighted_fourier_sum,
    weighted_fourier_partials,
)

# Frozen oracle values: deep truncation of the infinite product
# prod_j (1 + exp(-4 pi i n / 3^j)) / 2, cross-checked against level-14
# atomic sums during development; both routes agreed to ~2e-9 or better.
SIGMA_1 = 0.37143735670876543
SIGMA_2 = -0.07654171272866843
SIGMA_5 = -0.17065796643021197


def left_endpoints(level: int) -> np.ndarray:
    """The cells' left endpoints (the images of 0 under the digit maps): the
    barycenters shifted down by half a cell width."""
    return atoms(level) - 3.0 ** -level / 2


class TestAtoms:
    def test_level_zero_and_one(self):
        assert atoms(0).tolist() == [0.5]
        assert atoms(1) == pytest.approx([1.0 / 6.0, 2.0 / 3.0 + 1.0 / 6.0])
        assert left_endpoints(1) == pytest.approx([0.0, 2.0 / 3.0], abs=1e-16)

    def test_self_similarity_of_atom_sets(self):
        # the level-L set of barycenters is the union of the two contracted
        # level-(L-1) sets
        prev = atoms(4)
        cur = np.sort(atoms(5))
        images = np.sort(np.concatenate([prev / 3.0, prev / 3.0 + 2.0 / 3.0]))
        assert cur == pytest.approx(images, abs=1e-15)

    def test_atoms_in_unit_interval(self):
        t = atoms(10)
        assert t.min() >= 0.0 and t.max() < 1.0
        assert len(t) == 2 ** 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            atoms(-1)
        with pytest.raises(ValueError):
            atoms(MAX_IFS_LEVEL + 1)

    def test_support_cover_measure(self):
        assert support_measure_zero(0) == 1.0
        assert support_measure_zero(1) == pytest.approx(2.0 / 3.0)
        assert support_measure_zero(18) < 1e-3


class TestFourierCoeff:
    def test_at_zero_exactly_one(self):
        assert fourier_table_recursion(5, 1e-12)[0] == 1.0 + 0j

    def test_frozen_values(self):
        table = fourier_table_recursion(5, 1e-12)
        assert table[1].real == pytest.approx(SIGMA_1, abs=1e-10)
        assert table[2].real == pytest.approx(SIGMA_2, abs=1e-10)
        assert table[5].real == pytest.approx(SIGMA_5, abs=1e-10)

    def test_nearly_real(self):
        # the atomic route is real only up to rounding
        table = fourier_table_ifs(100, 12)
        for n in (1, 2, 5, 17, 100):
            assert abs(table[n].imag) < 1e-11

    @given(st.integers(min_value=-300, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_self_similarity_and_modulus(self, n):
        eps = 1e-11
        table = fourier_table_recursion(900, eps)
        v = table[n]
        assert abs(v) <= 1.0 + eps
        assert abs(table[3 * n] - v) <= 2 * eps

    def test_depth_grows_logarithmically(self):
        assert recursion_depth(0, 1e-10) == 0
        d1 = recursion_depth(10, 1e-10)
        d2 = recursion_depth(10 * 3 ** 5, 1e-10)
        assert d2 == d1 + 5

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            fourier_table_recursion(1, 0.0)


def complex_product(n: np.ndarray, depth: int) -> np.ndarray:
    """prod_{j=1..depth} (1 + exp(-4 pi i n / 3^j)) / 2 for integers n, the
    defining product in its complex form with n reduced mod 3^j in int64;
    independent of the real cosine route."""
    n = np.asarray(n, dtype=np.int64)
    v = np.ones(n.shape, dtype=np.complex128)
    for j in range(1, depth + 1):
        v *= 0.5 * (1.0 + np.exp(-4j * np.pi * ((n % 3 ** j) / float(3 ** j))))
    return v


class TestFourierTables:
    def test_recursion_matches_scalar_route(self):
        # the table uses one uniform depth, the scalar product a per-n depth;
        # both sit within eps of the limit so they differ by at most 2 eps
        table = fourier_table_recursion(32, 1e-10)
        for n in (-32, -7, 0, 3, 32):
            scalar = complex(complex_product([n], recursion_depth(n, 1e-10))[0])
            assert table[n] == pytest.approx(scalar, abs=2e-10)

    def test_real_cosine_product_matches_complex_recursion(self):
        # the complex product of (1 + exp(-4 pi i n / 3^j)) / 2 at the same
        # depth is within eps of the limit; the real product is within eps^2/4
        for max_n in (32, 4096):
            eps = 1e-10
            expected = complex_product(np.arange(-max_n, max_n + 1),
                                       recursion_depth(max_n, eps))
            table = fourier_table_recursion(max_n, eps)
            assert table.coeffs.shape == expected.shape
            assert np.abs(table.coeffs - expected).max() <= eps
            assert np.all(table.coeffs.imag == 0)
            assert table[0] == 1.0

    def test_deep_table_within_tolerance_of_mpmath(self):
        # the same truncated product in 40-digit arithmetic; at these n,
        # angles formed by dividing by 3 once per level drift by up to 5e-11
        table = fourier_table_recursion(2 ** 20, 1e-12)
        depth = recursion_depth(2 ** 20, 1e-12)
        mpmath.mp.dps = 40
        for n in (531442, 797161):
            exact = (-1) ** n * mpmath.fprod(
                mpmath.cos(2 * mpmath.pi * n / mpmath.mpf(3) ** j) for j in range(1, depth + 1))
            assert abs(table[n] - complex(exact)) <= table.tolerance

    def test_periodic_factors_equal_exact_remainder_angles(self):
        # each factor as written: 2 pi (n mod 3^j) / 3^j with an int64 remainder
        for max_n, eps in ((0, 1e-9), (2, 1e-12), (9, 1e-9), (80, 1e-12), (82, 1e-10),
                           (5000, 1e-12)):
            n = np.arange(max_n + 1, dtype=np.int64)
            want = np.ones(max_n + 1)
            for j in range(1, recursion_depth(max_n, eps) + 1):
                want *= np.cos((n % 3 ** j) / float(3 ** j) * (2.0 * np.pi))
            assert cantor._cos_product(max_n, eps).tobytes() == want.tobytes()

    @pytest.mark.parametrize("max_n", [0, 1, 242, 243, 244, 512, 4096, 2 * 3 ** 12 + 5, 2 ** 20])
    def test_chunked_product_is_bit_identical_for_any_worker_count(self, max_n, monkeypatch):
        # the product before the range was cut into chunks: each level over
        # the whole range at once, a tiled level repeated by np.resize
        eps = 1e-12
        x = np.arange(max_n + 1, dtype=np.float64)
        want = np.ones(max_n + 1)
        for j in range(1, recursion_depth(max_n, eps) + 1):
            period = 3 ** j
            f = np.cos(x[:min(period, max_n + 1)] / float(period) * (2.0 * np.pi))
            want *= f if len(f) == len(want) else np.resize(f, len(want))
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            threads = threading.active_count()
            assert cantor._cos_product(max_n, eps).tobytes() == want.tobytes()
            assert threading.active_count() == threads

    def test_conjugate_symmetry(self):
        for table in (fourier_table_recursion(64, 1e-10), fourier_table_ifs(64, 12)):
            assert table.symmetry_defect() <= 2e-10

    def test_two_routes_agree(self):
        rec = fourier_table_recursion(64, 1e-10)
        ifs = fourier_table_ifs(64, 14)
        diff = max(abs(rec[n] - ifs[n]) for n in range(-64, 65))
        assert diff < 1e-6

    def test_midpoint_oracle_beats_left_at_ternary_frequencies(self):
        # at n = 3^m the left-endpoint discretization error is first order
        rec = fourier_table_recursion(243, 1e-11)
        mid = fourier_table_ifs(243, 14)
        left = np.exp(-2j * np.pi * 243.0 * left_endpoints(14)).mean()
        assert abs(mid[243] - rec[243]) < 1e-7
        assert abs(left - rec[243]) > 1e-5

    def test_ifs_tolerance_is_the_midpoint_bound(self):
        # |sigma_hat(n) - ifs_L(n)| <= pi^2 n^2 9^-L / 4 for |n| <= max_n in
        # exact arithmetic, plus the rounding of the atoms, of the phases,
        # whose arguments reach 2 pi (max_n + 64), and of the 2^L-term sums
        for max_n, level in ((256, 14), (100, 10), (1, 16)):
            table = fourier_table_ifs(max_n, level)
            rounding = (4 * math.pi * (max_n + 64) * (level + 7) + 3 * 2 ** level + 8) * 2.0 ** -53
            assert table.tolerance == pytest.approx(
                math.pi ** 2 * max_n ** 2 * 9.0 ** -level / 4 + rounding, rel=1e-15)
            rec = fourier_table_recursion(max_n, 1e-13)
            assert np.abs(table.coeffs - rec.coeffs).max() <= table.tolerance
            assert table.symmetry_defect() <= 2 * table.tolerance

    @pytest.mark.parametrize("max_n, level", [(1, 6), (2, 11), (31, 8), (32, 8), (63, 9), (300, 12)])
    def test_ifs_builds_only_the_columns_it_reads(self, max_n, level, monkeypatch):
        # the table from all 64 inner columns, one exp per phase block
        t = atoms(level)
        first = -max_n // 64
        offsets = np.arange(first, max_n // 64 + 1, dtype=np.float64) * 64

        def phases(ks):
            return np.exp(np.multiply.outer(-2j * np.pi * ks, t))

        inner = phases(np.arange(64, dtype=np.float64)).T
        vals = np.concatenate([phases(offsets[s:s + 64]) @ inner
                               for s in range(0, len(offsets), 64)]).ravel() / len(t)
        lo = -max_n - first * 64
        full = vals[lo:lo + 2 * max_n + 1]
        tables = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            threads = threading.active_count()
            tables.append(fourier_table_ifs(max_n, level).coeffs.tobytes())
            assert threading.active_count() == threads
        assert tables[1] == tables[0] and tables[2] == tables[0]
        table = fourier_table_ifs(max_n, level)
        if max_n >= 32:  # every column is read
            assert table.coeffs.tobytes() == full.tobytes()
        else:
            assert np.abs(table.coeffs - full).max() <= table.tolerance
            rec = fourier_table_recursion(max_n, 1e-13)
            assert np.abs(table.coeffs - rec.coeffs).max() <= table.tolerance

    def test_ifs_matches_per_frequency_atom_sums(self):
        # the block product against exp(-2 pi i n t) averaged over the atoms
        t = atoms(6)
        for max_n in (0, 1, 63, 64, 100):
            table = fourier_table_ifs(max_n, 6)
            assert table.coeffs.shape == (2 * max_n + 1,)
            assert table[0] == 1.0
            for n in range(-max_n, max_n + 1):
                direct = np.exp(-2j * np.pi * float(n) * t).mean()
                assert abs(table[n] - direct) <= 1e-13

    def test_ifs_level_cap_refused_before_allocation(self, monkeypatch):
        def no_atoms(*args):
            raise AssertionError("atoms built for a refused level")
        monkeypatch.setattr(cantor, "atoms", no_atoms)
        with pytest.raises(ValueError):
            fourier_table_ifs(4, MAX_IFS_LEVEL + 1)

    def test_table_size_cap_refused_before_allocation(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("table work started for a refused size")
        monkeypatch.setattr(cantor, "_cos_product", no_work)
        monkeypatch.setattr(cantor, "atoms", no_work)
        for max_n in (MAX_TABLE_N + 1, 10 ** 9, -1):
            with pytest.raises(ValueError):
                fourier_table_recursion(max_n)
            with pytest.raises(ValueError):
                fourier_table_ifs(max_n, 4)

    def test_out_of_range_lookup(self):
        table = fourier_table_recursion(8, 1e-10)
        for n in (9, -9):
            with pytest.raises(ValueError):
                table[n]

    def test_array_methods_match_per_entry_loops(self):
        for table in (fourier_table_recursion(40, 1e-10), fourier_table_ifs(40, 8)):
            vals = {n: table[n] for n in range(-40, 41)}
            assert table.symmetry_defect() == max(
                abs(vals[-n] - vals[n].conjugate()) for n in range(41))
            assert table.max_abs() == max(abs(v) for v in vals.values())
            assert table.csv_rows() == [[n, v.real, v.imag, abs(v)] for n, v in vals.items()]

    def test_csv_rows_cover_range(self):
        table = fourier_table_recursion(4, 1e-10)
        rows = table.csv_rows()
        assert len(rows) == 9
        assert rows[4][0] == 0 and rows[4][1] == pytest.approx(1.0)


class TestWeightedSum:
    def test_first_partials_against_frozen_coefficients(self):
        assert weighted_fourier_sum(0) == pytest.approx(1.0, abs=1e-12)
        expected = 1.0 + SIGMA_1 ** 2 / math.sqrt(2.0)
        assert weighted_fourier_sum(1) == pytest.approx(expected, abs=1e-9)

    def test_partials_nondecreasing(self):
        vals = weighted_fourier_partials([2 ** p for p in range(4, 11)])
        seq = [vals[2 ** p] for p in range(4, 11)]
        assert all(b >= a for a, b in zip(seq, seq[1:]))

    def test_partials_consistent_with_single_calls(self):
        vals = weighted_fourier_partials([16, 256])
        assert vals[16] == pytest.approx(weighted_fourier_sum(16), rel=1e-12)
        assert vals[256] == pytest.approx(weighted_fourier_sum(256), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weighted_fourier_sum(-1)

    def test_cosine_product_matches_recursion_modulus(self):
        # the weighted terms square the real cosine product; the complex
        # product at the same depth has the same modulus up to rounding
        n = np.arange(4097, dtype=np.float64)
        terms = cantor._weighted_terms(4096, 1e-9)
        assert len(terms) == 4097
        sq = terms * np.sqrt(n + 1.0)
        rec = complex_product(n, recursion_depth(4096, 1e-9))
        assert np.abs(sq - np.abs(rec) ** 2).max() <= 1e-14


def riesz_pair_sum_oracle(t: np.ndarray) -> float:
    """Plain double loop over the atoms t; independent of the digit-difference
    route."""
    z = np.exp(2j * np.pi * t)
    total = 0.0
    for i in range(len(z)):
        for j in range(len(z)):
            if i != j:
                total += abs(z[i] - z[j]) ** -0.5
    return total / len(z) ** 2


def riesz_bracket_oracle(level: int) -> tuple[float, float]:
    """The convexity bracket on I(sigma) by a plain double loop over the
    level-L cells, independent of the digit-difference route.

    Each pair of distinct cells that do not touch adds its midpoint chord
    kernel below and the mean of its two endpoint values above. The same cell
    and the touching first/last pair close through the line constants
    J = E|X - Y|^(-1/2) and K = E|X - Y + 1|^(-1/2), themselves summed pair by
    pair and divided by their self-similar shares.
    """
    h = 3.0 ** -level
    t = left_endpoints(level)
    last = len(t) - 1

    def chord(d):
        return abs(np.exp(2j * np.pi * d) - 1.0) ** -0.5

    def line(x):
        return abs(x) ** -0.5

    cross, line_sum, k_sum = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for a in range(len(t)):
        for b in range(len(t)):
            d = t[a] - t[b]
            if (a, b) != (0, last):
                k_sum[0] += line(d + 1.0)
                k_sum[1] += (line(d + 1.0 - h) + line(d + 1.0 + h)) / 2
            if a == b:
                continue
            line_sum[0] += line(d)
            line_sum[1] += (line(abs(d) - h) + line(abs(d) + h)) / 2
            if {a, b} != {0, last}:
                cross[0] += chord(d)
                cross[1] += (chord(d - h) + chord(d + h)) / 2
    w = 4.0 ** -level
    q = (math.sqrt(3) / 2) ** level
    r = (math.sqrt(3) / 4) ** level
    same_cell = (2 * math.pi, 2 * math.pi * math.sin(math.pi * h) / (math.pi * h))
    touching = (2 * math.pi, 2 * math.pi * math.sin(2 * math.pi * h) / (2 * math.pi * h))
    return tuple(
        w * cross[i]
        + q * w * line_sum[i] / (1 - q) / math.sqrt(same_cell[i])
        + 2 * r * w * k_sum[i] / (1 - r) / math.sqrt(touching[i])
        for i in (0, 1)
    )


def energy_with_whole_tables(level):
    """riesz_energy's bracket and pair sum with the kernel tables formed as
    whole-array expressions, each from temporaries."""
    n = 3 ** level
    M = (n - 1) // 2
    w = cantor._difference_weights(level)
    pos, dot = w[M + 1:], cantor._dot
    reg = pos[:-1]
    with np.errstate(divide="ignore"):
        line = np.sqrt(n / np.arange(2 * n + 1, dtype=np.float64))
        half = (2.0 * np.sin(np.pi / n * np.arange(M + 1))) ** -0.5
    chord = np.concatenate([half, half[::-1]])
    pair_sum = 2.0 * dot(pos, chord[2:2 * M + 1:2])
    cross_lo = 2.0 * dot(reg, chord[2:2 * M:2])
    cross_hi = dot(reg, chord[1:2 * M - 1:2] + chord[3:2 * M + 1:2])
    j_lo = 2.0 * dot(pos, line[2:2 * M + 1:2])
    j_hi = dot(pos, line[1:2 * M:2] + line[3:2 * M + 2:2])
    k_lo = dot(w[1:], line[3:2 * n:2])
    k_hi = 0.5 * dot(w[1:], line[2:2 * n - 1:2] + line[4:2 * n + 1:2])
    root_n = math.sqrt(n)
    q_l, r_l = root_n / 2.0 ** level, root_n / 4.0 ** level
    j_lo, j_hi = j_lo / (1.0 - q_l), j_hi / (1.0 - q_l)
    k_lo, k_hi = k_lo / (1.0 - r_l), k_hi / (1.0 - r_l)
    arc = 1.0 / math.sqrt(2.0 * math.pi)
    lower = cross_lo + arc * (q_l * j_lo + 2.0 * r_l * k_lo)
    upper = cross_hi + arc * (q_l * j_hi / math.sqrt(cantor._sinc(math.pi / n))
                              + 2.0 * r_l * k_hi / math.sqrt(cantor._sinc(2.0 * math.pi / n)))
    slack = 2.0 * (n + 80) * cantor._UNIT_ROUNDOFF
    return lower * (1.0 - slack), upper * (1.0 + slack), pair_sum


class TestRieszEnergy:
    @pytest.mark.parametrize("level", range(1, 13))
    def test_in_place_tables_equal_whole_array_tables(self, level):
        est = riesz_energy(level)
        assert [x.hex() for x in (est.lower, est.upper, est.pair_sum)] == \
            [x.hex() for x in energy_with_whole_tables(level)]

    def test_traced_memory_at_level_13(self):
        tracemalloc.start()
        try:
            riesz_energy(13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 58 * 2 ** 20  # 66.9 MiB with whole-array tables

    def test_lower_matches_brute_force_oracle(self):
        for level in (2, 3, 5):
            est = riesz_energy(level)
            assert est.pair_sum == pytest.approx(riesz_pair_sum_oracle(atoms(level)),
                                                 rel=1e-12)

    def test_pair_sum_does_not_depend_on_atom_offset(self):
        # every atom sits at the same offset in its cell, so moving all of
        # them to the left endpoints leaves every atom difference unchanged
        est = riesz_energy(4)
        assert est.pair_sum == pytest.approx(riesz_pair_sum_oracle(left_endpoints(4)),
                                             rel=1e-12)

    def test_lower_below_upper_and_monotone(self):
        ests = [riesz_energy(lv) for lv in (2, 4, 6, 8)]
        lowers = [e.lower for e in ests]
        uppers = [e.upper for e in ests]
        assert all(e.lower <= e.upper for e in ests)
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        assert max(lowers) <= min(uppers)

    def test_upper_finite(self):
        est = riesz_energy(8)
        assert math.isfinite(est.upper)
        for level in (1, 2, 3, 5):
            est = riesz_energy(level)
            lo, hi = riesz_bracket_oracle(level)
            assert est.lower == pytest.approx(lo, rel=1e-12)
            assert est.upper == pytest.approx(hi, rel=1e-12)

    def test_pair_sum_below_bracket(self):
        for level in (1, 4, 9):
            est = riesz_energy(level)
            assert est.pair_sum < est.lower

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            riesz_energy(0)

    def test_rejects_level_above_cap(self):
        with pytest.raises(ValueError):
            riesz_energy(MAX_ENERGY_LEVEL + 1)


_THREAD_PROBE = """
import hashlib
import numpy as np
from daverify.cantor import fourier_table_ifs, riesz_energy
from daverify.henkin import sample_cantor_points
print(repr(riesz_energy(12)))
print(fourier_table_ifs(100, 10).coeffs.tobytes().hex())
print(hashlib.sha256(sample_cantor_points(53958, np.random.default_rng(7)).tobytes()).hexdigest())
"""


def test_results_do_not_depend_on_blas_threads():
    src = str(Path(cantor.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("EnergyEstimate(level=12, ")
