"""Moments of the sphere measures, the witness identities, non-Henkin decay,
and peak behaviour."""

import dataclasses
import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from daverify import _workers, henkin
from daverify.cantor import fourier_table_ifs, fourier_table_recursion
from daverify.exact import Polynomial, QComplex, format_rational, multi_indices
from daverify.henkin import (
    MomentReport,
    PeakReport,
    PushforwardMeasure,
    build_witness,
    extremal_bound_check,
    henkin_identity_check,
    mc_moment,
    mc_moment_batch,
    non_henkin_witness,
    peak_check,
    sample_cantor_points,
)
from daverify.norms import da_inner

SIGMA_1 = 0.37143735670876543
MB = henkin._MC_BLOCK


# Uniform samples of the unit sphere and of a ball in C^cdim, each drawn in
# one piece: the references for the blocked closed-ball draws. A ball draws
# its radii, then its directions; a complex normal is the real and the
# imaginary part of two neighbouring standard normals.
def sphere(count, rng, cdim):
    g = rng.standard_normal((count, 2 * cdim)).view(np.complex128)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def ball(count, rng, cdim, radius):
    radii = radius * rng.random((count, 1)) ** (1.0 / (2 * cdim))
    return sphere(count, rng, cdim) * radii


# The maps of the two measures written out, each drawn in one piece: the
# references for `henkin._mc_point_blocks` and for `PushforwardMeasure.sample`,
# which copies its blocks. D4 is (zeta, conj(zeta_1 zeta_2 zeta_3)) / 2, with the later
# product in place as the map forms it: out of place, numpy rounds it
# differently at one row for some seeds, seed 1 among them. D2 is
# (zeta, conj(zeta) omega) / sqrt(2) with omega = e^(2 pi i t), the torus
# draw first, then the Cantor digits.
def d4_points(count, rng):
    zeta = np.exp(2j * np.pi * rng.random((count, 3)))
    z4 = zeta[:, 0] * zeta[:, 1]
    z4 *= zeta[:, 2]
    return 0.5 * np.column_stack([zeta[:, 0], zeta[:, 1], zeta[:, 2], np.conj(z4)])


def d2_points(count, rng):
    zeta = np.exp(2j * np.pi * rng.random((count, 1)))[:, 0]
    omega = np.exp(2j * np.pi * sample_cantor_points(count, rng))
    return np.column_stack([zeta, np.conj(zeta) * omega]) / math.sqrt(2.0)


# r = 16 z1 z2 z3 z4 written out: the reference for henkin._r_values
def r4(points):
    return 16.0 * points[:, 0] * points[:, 1] * points[:, 2] * points[:, 3]


D4 = PushforwardMeasure("D4")
_MOMENT = PushforwardMeasure._moment


def perturb_moments(monkeypatch, wrong_at) -> None:
    """Make the moment formula, which `PushforwardMeasure.moment` wraps and
    the identity check reads, wrong by 2^-60 at each alpha in wrong_at."""
    def wrong(self, alpha):
        m = _MOMENT(self, alpha)
        return m + Fraction(1, 2 ** 60) if alpha in wrong_at else m
    monkeypatch.setattr(PushforwardMeasure, "_moment", wrong)


def perturb_diagonal_moment(monkeypatch, j0: int) -> None:
    """Make the D4 moment wrong by 2^-60 at alpha = (j0, j0, j0, j0)."""
    perturb_moments(monkeypatch, {(j0,) * 4})


class TestClosedFormMoments:
    def test_d4_diagonal(self):
        assert D4.moment((0, 0, 0, 0)) == 1
        assert D4.moment((1, 1, 1, 1)) == Fraction(1, 16)
        assert D4.moment((3, 3, 3, 3)) == Fraction(1, 4096)

    def test_d4_off_diagonal_vanishes(self):
        assert D4.moment((1, 0, 0, 0)) == 0
        assert D4.moment((2, 1, 1, 2)) == 0

    def test_d4_needs_length_four(self):
        with pytest.raises(ValueError):
            D4.moment((1, 1))

    def test_moment_checks_its_index_before_the_formula(self):
        # the identity check reads the unchecked formula; moment still refuses
        # what is not a multi-index of the measure's length
        d2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        for measure, dim in ((D4, 4), (d2, 2)):
            for bad in ((1, -1) + (0,) * (dim - 2), (True,) + (0,) * (dim - 1),
                        (1.0,) + (0,) * (dim - 1), (), (0,) * (dim + 1)):
                with pytest.raises(ValueError):
                    measure.moment(bad)
            assert measure.moment([2] * dim) == measure._moment((2,) * dim)

    def test_moment_pins_both_formulas(self):
        # each closed form written out on its own, against the shared body:
        # values and types, on and off the diagonal
        table = fourier_table_recursion(12, 1e-12)
        d2 = PushforwardMeasure("D2", table)
        for alpha in multi_indices(4, 12):
            m = D4.moment(alpha)
            want = Fraction(1, 2 ** (4 * alpha[0])) if len(set(alpha)) == 1 else Fraction(0)
            assert type(m) is Fraction and m == want
        for i, j in itertools.product(range(13), repeat=2):
            m = d2.moment((i, j))
            want = 2.0 ** (-j) * table[-j] if i == j else 0j
            assert type(m) is complex and repr(m) == repr(want)

    def test_d2_moment_underflows_like_its_formula(self):
        k = 2 ** 20
        table = fourier_table_recursion(k, 1e-12)
        m = PushforwardMeasure("D2", table).moment((k, k))
        assert 2.0 ** (-k) == 0.0
        assert type(m) is complex and repr(m) == repr(2.0 ** (-k) * table[-k])
        assert D4.moment((k,) * 4) == Fraction(1, 16 ** k)

    def test_d2_diagonal_and_off(self):
        m2 = PushforwardMeasure("D2", fourier_table_recursion(8, 1e-12))
        assert m2.moment((0, 0)) == 1.0 + 0j
        assert m2.moment((1, 2)) == 0j
        expected = 0.5 * SIGMA_1
        assert m2.moment((1, 1)).real == pytest.approx(expected, abs=1e-9)

    def test_d2_range_guard(self):
        m2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        with pytest.raises(ValueError):
            m2.moment((5, 5))

    def test_mass_one_and_bounded(self):
        table = fourier_table_recursion(6, 1e-12)
        m4 = PushforwardMeasure("D4")
        m2 = PushforwardMeasure("D2", table)
        assert m4.moment((0, 0, 0, 0)) == 1
        assert abs(m2.moment((0, 0))) == 1.0
        for k in range(1, 6):
            assert m4.moment((k,) * 4) < 1
            assert abs(m2.moment((k, k))) < 1


class TestSamplers:
    def test_pushforward_lands_on_sphere(self):
        rng = np.random.default_rng(11)
        table = fourier_table_recursion(4, 1e-12)
        for measure in (PushforwardMeasure("D4"), PushforwardMeasure("D2", table)):
            pts = measure.sample(500, rng)
            radii = np.sum(np.abs(pts) ** 2, axis=1)
            assert np.abs(radii - 1.0).max() < 1e-12

    def test_d4_map_last_coordinate(self):
        pts = D4.sample(100, np.random.default_rng(0))
        # r(h(zeta)) = 16 z1 z2 z3 z4 = 1 identically
        assert D4.scale == 16
        assert np.abs(r4(pts) - 1.0).max() < 1e-12

    def test_d2_map_pairs_conjugates(self):
        # the torus draw comes first, then the Cantor digits, and r = 2 z1 z2
        # pushes to omega = e^(2 pi i t)
        m2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        pts = m2.sample(50, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        rng.random((50, 1))
        omega = np.exp(2j * np.pi * sample_cantor_points(50, rng))
        assert m2.scale == 2
        assert np.abs(henkin._r_values(pts, m2.scale) - omega).max() < 1e-12

    def test_chunked_samplers_equal_one_shot_draws(self):
        # digit j is bit 64 - j of one 64-bit draw, 1 -> 2 read in base 3: the
        # two 32-digit halves hi and lo as Python ints, t = hi 3^-32 + lo 3^-64
        counts = (*range(21), 16383, 16384, 16385, 32769, 50000)
        for seed, count in itertools.product((1, 13), counts):
            rng = np.random.default_rng(seed)
            words = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
            expected = []
            for w in words.tolist():
                digits = format(w, "064b").replace("1", "2")
                expected.append(int(digits[:32], 3) * 3.0 ** -32
                                + int(digits[32:], 3) * 3.0 ** -64)
            sampler = np.random.default_rng(seed)
            got = sample_cantor_points(count, sampler)
            assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()
            assert sampler.bit_generator.state == rng.bit_generator.state

            # no rows, and a lone row, which is a block of its own, among them
            want_rng, sampler = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = d4_points(count, want_rng)
            got = PushforwardMeasure("D4").sample(count, sampler)
            assert got.shape == (count, 4) and got.tobytes() == expected.tobytes()
            assert sampler.bit_generator.state == want_rng.bit_generator.state

    def test_d2_sample_equals_its_written_out_map(self):
        d2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        for count in (*range(21), 65537):
            want_rng, sampler = np.random.default_rng(13), np.random.default_rng(13)
            expected = d2_points(count, want_rng)
            got = d2.sample(count, sampler)
            assert got.shape == (count, 2) and got.tobytes() == expected.tobytes()
            assert sampler.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 1001, 16385, 40000])
    def test_samplers_do_not_depend_on_worker_count(self, count, monkeypatch):
        d2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        draws = {"cantor": lambda rng: sample_cantor_points(count, rng),
                 "d4": lambda rng: D4.sample(count, rng),
                 "d2": lambda rng: d2.sample(count, rng)}
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            threads = threading.active_count()
            out = {}
            for name, draw in draws.items():
                rng = np.random.default_rng(count)
                out[name] = (draw(rng).tobytes(), rng.bit_generator.state)
            got.append(out)
            assert threading.active_count() == threads
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("variant", ["D4", "D2"])
    def test_monte_carlo_blocks_equal_the_sample(self, variant):
        # the points of each block, mapped by `points`, against the map
        # written out and drawn in one piece: the same bytes and the same
        # draws; no block is one row
        if variant == "D4":
            measure, written_out = D4, d4_points
        else:
            measure, written_out = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12)), d2_points
        for samples in (1000, MB - 1, MB, MB + 1, 3 * MB + 7):
            rng = np.random.default_rng(samples)
            blocks = list(henkin._mc_point_blocks(measure, samples, rng))
            want_rng = np.random.default_rng(samples)
            assert np.concatenate(blocks).tobytes() == written_out(samples, want_rng).tobytes()
            assert rng.bit_generator.state == want_rng.bit_generator.state
            assert all(1 < len(b) <= MB + 1 for b in blocks)

    def test_r_values_equal_the_written_out_product(self):
        rng = np.random.default_rng(7)
        for rows in range(1, 21):
            p = sphere(rows, rng, 4)
            assert henkin._r_values(p, 16).tobytes() == r4(p).tobytes()

    def test_cantor_samples_avoid_middle_third(self):
        t = sample_cantor_points(2000, np.random.default_rng(2))
        assert np.all((t < 1.0 / 3.0) | (t >= 2.0 / 3.0))
        assert t.min() >= 0.0 and t.max() < 1.0

    def test_ball_samples_inside_radius(self):
        # |r(z)| = c |z_1...z_d| <= |z|^d by the AM-GM inequality
        d2 = PushforwardMeasure("D2", fourier_table_recursion(4, 1e-12))
        for measure in (D4, d2):
            blocks = henkin._closed_ball_r_blocks(measure, 1000, 0,
                                                  np.random.default_rng(3), 0.9)
            assert max(float(np.abs(r).max()) for r in blocks) <= 0.9 ** measure.dim + 1e-12

    def test_d2_requires_table(self):
        with pytest.raises(ValueError):
            PushforwardMeasure("D2")

    def test_every_entry_point_refuses_bad_variant_and_missing_table(self):
        table = fourier_table_recursion(4, 1e-12)
        w2 = build_witness("D2", 4, table)
        calls = [
            # the D4 measure has t = 0: a table would be accepted and ignored
            lambda: PushforwardMeasure("D4", table),
            lambda: build_witness("D4", 2, table),
            lambda: henkin_identity_check("D4", 4, build_witness("D4", 1), table=table),
            lambda: mc_moment("D3", (1, 1), 1000, 0),
            lambda: mc_moment_batch("D3", 5, 1000, 0),
            lambda: build_witness("D3", 2),
            lambda: build_witness("D2", 2),
            lambda: henkin_identity_check("D3", 4, w2),
            lambda: henkin_identity_check("D2", 4, w2),
        ]
        for call in calls:
            with pytest.raises(ValueError,
                               match="variant must be|needs a FourierTable|takes no FourierTable"):
                call()


class TestMonteCarlo:
    def test_d4_moment_within_4_sigma(self):
        rep = mc_moment("D4", (1, 1, 1, 1), 20_000, 17)
        assert rep.within_4_sigma
        assert rep.closed_form_exact == "1/16"

    def test_d4_degenerate_diagonal_is_exact(self):
        rep = mc_moment("D4", (2, 2, 2, 2), 1000, 5)
        assert rep.mc_stderr < 1e-15
        assert rep.mc_estimate.real == pytest.approx(1.0 / 256.0, abs=1e-16)

    def test_d2_batch_agreement(self):
        reps = mc_moment_batch("D2", 30, 40_000, 23)
        good = sum(1 for r in reps if r.within_4_sigma)
        assert good >= math.ceil(0.95 * len(reps))

    def test_batch_power_cache_is_bit_identical(self):
        # mc_moment_batch as one loop over every alpha, repeats included, on
        # contiguous columns of the whole sample, with no power cache: the
        # first product out of place, the rest in place, then the einsum mean
        # and deviation sum, or past one block each block's einsum sums
        # pooled in block order. The pinned reference for the blocks, the
        # power cache and reusing a repeated alpha's report.
        def pooled_sums(vals, samples):
            bounds = [*range(0, samples - 1, MB), samples]
            if len(bounds) == 2:
                est = complex(np.einsum("i->", vals)) / samples
                vals -= est
                flat = vals.view(np.float64)
                return est, float(np.einsum("i,i->", flat, flat))
            parts = []
            for lo, hi in zip(bounds, bounds[1:]):
                total = complex(np.einsum("i->", vals[lo:hi]))
                flat = (vals[lo:hi] - total / (hi - lo)).view(np.float64)
                parts.append((hi - lo, total, float(np.einsum("i,i->", flat, flat))))
            total = parts[0][1]
            for _, block_total, _ in parts[1:]:
                total += block_total
            est = total / samples
            dev = 0.0
            for n, block_total, block_dev in parts:
                gap = block_total / n - est
                dev += block_dev + n * (gap.real * gap.real + gap.imag * gap.imag)
            return est, dev

        def reference(variant, count, samples, seed, max_exp=6):
            rng = np.random.default_rng(seed)
            dim = 4 if variant == "D4" else 2
            alphas = []
            for i in range(count):
                if i % 10 == 0:
                    alphas.append((int(rng.integers(0, max_exp + 1)),) * dim)
                else:
                    alphas.append(tuple(int(x) for x in rng.integers(0, max_exp + 1, size=dim)))
            table = None if variant == "D4" else fourier_table_recursion(max_exp, 1e-12)
            measure = PushforwardMeasure(variant, table)
            points = (d4_points if variant == "D4" else d2_points)(samples, rng)
            columns = points.T.copy()
            new, old = [], []
            for a in alphas:
                if variant == "D4":
                    ce = measure.moment(a)
                    closed, exact_str = complex(float(ce), 0.0), format_rational(ce)
                else:
                    closed, exact_str = measure.moment(a), None

                factors = [columns[j] ** aj for j, aj in enumerate(a) if aj]
                if not factors:
                    vals = np.ones(samples, dtype=np.complex128)
                elif len(factors) == 1:
                    vals = factors[0].copy()
                else:
                    vals = factors[0] * factors[1]
                    for f in factors[2:]:
                        vals *= f
                est, dev = pooled_sums(vals, samples)
                stderr = math.sqrt(dev / samples / samples)
                ok = abs(est - closed) <= max(4.0 * stderr, 1e-13)
                new.append(MomentReport(a, closed, exact_str, est, stderr, ok))

                # the formula before the contiguous columns: strided powers
                # multiplied into ones, np.mean and np.var
                vals = np.ones(samples, dtype=np.complex128)
                for j, aj in enumerate(a):
                    if aj:
                        vals *= points[:, j] ** aj
                est = complex(np.mean(vals))
                stderr = math.sqrt(float(np.var(vals.real) + np.var(vals.imag)) / samples)
                ok = abs(est - closed) <= max(4.0 * stderr, 1e-13)
                old.append(MomentReport(a, closed, exact_str, est, stderr, ok))
            return alphas, new, old

        for variant, count, seed, samples in (("D4", 40, 29, 5000), ("D2", 40, 29, 5000),
                                              ("D2", 100, 123, 5000), ("D4", 40, 7, 3 * MB + 7),
                                              ("D2", 40, 7, 3 * MB + 7)):
            alphas, want, old = reference(variant, count, samples, seed)
            got = mc_moment_batch(variant, count, samples, seed)
            assert repr(got) == repr(want)
            for g, o in zip(got, old):
                assert abs(g.mc_estimate - o.mc_estimate) <= 1e-15
                assert g.within_4_sigma == o.within_4_sigma
            if (variant, count) == ("D2", 100):
                assert len(set(alphas)) < len(alphas)

    @pytest.mark.parametrize("call", [
        lambda: mc_moment_batch("D4", 100, 4000, 31),
        lambda: mc_moment_batch("D2", 100, 4000, 37),
        lambda: mc_moment("D4", (3, 1, 0, 2), 4000, 41),
        lambda: mc_moment("D2", (5, 5), 4000, 43),
    ], ids=["batch-d4", "batch-d2", "one-d4", "one-d2"])
    def test_reports_do_not_depend_on_worker_count(self, call, monkeypatch):
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            threads = threading.active_count()
            reports.append(repr(call()))
            assert threading.active_count() == threads
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_sample_counts_outside_the_limits_refused(self):
        message = f"samples must be in \\[1000, {henkin.MAX_MC_SAMPLES}\\]"
        for samples in (999, henkin.MAX_MC_SAMPLES + 1, 10 ** 12):
            with pytest.raises(ValueError, match=message):
                mc_moment("D4", (1, 1, 1, 1), samples, 0)
            with pytest.raises(ValueError, match=message):
                mc_moment_batch("D2", 5, samples, 0)

    @pytest.mark.parametrize("samples", [5 * 10 ** 4, 3 * 10 ** 5])
    def test_batch_memory_does_not_grow_with_samples(self, samples):
        # one block's points, columns, column powers and product buffer, and
        # a few numbers a block: 4.7 to 4.8 MiB traced at either size; the
        # whole sample's columns alone would take 18 MiB at 3 x 10^5
        # numpy.random imports lazily on first use; drawn once here, its
        # import stays outside the measured window
        np.random.default_rng(0).random()
        tracemalloc.start()
        try:
            mc_moment_batch("D4", 100, samples, 31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_seed_determinism(self):
        a = mc_moment("D4", (1, 0, 0, 1), 5000, 99)
        b = mc_moment("D4", (1, 0, 0, 1), 5000, 99)
        assert a.mc_estimate == b.mc_estimate

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            mc_moment("D4", (1, 1, 1, 1), 999, 0)


class TestWitness:
    def test_d4_coefficients_frozen(self):
        w = build_witness("D4", 2)
        assert list(w.diag) == [Fraction(1), Fraction(3, 2), Fraction(315, 32)]
        assert w.norm_sq == Fraction(1) + Fraction(3, 32) + Fraction(315, 8192)

    def test_d2_coefficients_track_fourier(self):
        table = fourier_table_recursion(3, 1e-12)
        w = build_witness("D2", 3, table)
        assert w.diag[0] == pytest.approx(1.0)
        assert w.diag[1] == pytest.approx(0.5 * 2.0 * SIGMA_1, abs=1e-9)

    def test_d2_real_table_gives_positive_zero_imaginary_parts(self):
        # a report writes -0.0 as "-0.0", which would carry no information
        w = build_witness("D2", 100, fourier_table_recursion(100, 1e-12))
        assert any(c.real < 0 for c in w.diag)
        assert all(math.copysign(1.0, c.imag) == 1.0 for c in w.diag)

    def test_values_take_the_type_of_their_measure(self):
        w4 = build_witness("D4", 5)
        assert all(type(g) is Fraction for g in w4.diag) and type(w4.norm_sq) is Fraction
        table = fourier_table_recursion(5, 1e-12)
        w2 = build_witness("D2", 5, table)
        assert all(type(g) is complex for g in w2.diag) and type(w2.norm_sq) is float
        assert w2.measure.table is table and w4.measure == D4

    def test_d2_needs_long_enough_table(self):
        table = fourier_table_recursion(3, 1e-12)
        with pytest.raises(ValueError):
            build_witness("D2", 10, table)

    def test_json_round_trip_fields(self):
        w4 = build_witness("D4", 1)
        js = w4.to_json()
        assert js["diag_coeffs_exact"] == ["1/1", "3/2"]
        table = fourier_table_recursion(2, 1e-12)
        js2 = build_witness("D2", 2, table).to_json()
        assert js2["table_source"] == "recursion"


class TestHenkinIdentity:
    def test_d4_exact_small_degrees(self):
        w = build_witness("D4", 3)
        res = henkin_identity_check("D4", 12, w)
        assert res.passed and res.checked == 1820 and res.max_dev == 0.0

    def test_d4_failure_serializes_max_dev_as_null(self, monkeypatch):
        perturb_diagonal_moment(monkeypatch, 1)
        res = henkin_identity_check("D4", 4, build_witness("D4", 1))
        assert res.failures == ((1, 1, 1, 1),) and res.max_dev == math.inf

    def test_d4_every_alpha_is_compared(self, monkeypatch):
        # one wrong moment on the diagonal and one off it: both must be caught,
        # so no path may skip the off-diagonal comparisons
        wrong_at = {(2, 2, 2, 2), (3, 1, 0, 2)}
        perturb_moments(monkeypatch, wrong_at)
        res = henkin_identity_check("D4", 12, build_witness("D4", 3))
        assert set(res.failures) == wrong_at
        assert res.checked == 1820 and not res.passed

    def test_d4_truncation_guard(self):
        w = build_witness("D4", 1)
        with pytest.raises(ValueError):
            henkin_identity_check("D4", 24, w)

    def test_d4_poly_route(self):
        w = build_witness("D4", 2)
        phi = Polynomial(4, {(0, 0, 0, 0): Fraction(2), (1, 1, 1, 1): QComplex(Fraction(1, 3)),
                             (1, 0, 0, 0): QComplex(Fraction(0), Fraction(5))})
        integral = sum((c * D4.moment(alpha) for alpha, c in phi.terms.items()), QComplex())
        inner = da_inner(phi, w.as_polynomial())
        assert integral == inner
        assert integral.re == 2 + Fraction(1, 3) * Fraction(1, 16)

    def test_d2_two_routes_small(self):
        rec = fourier_table_recursion(40, 1e-12)
        oracle = fourier_table_ifs(40, 14)
        w = build_witness("D2", 40, rec)
        res = henkin_identity_check("D2", 40, w, table=oracle, tol=1e-10)
        assert res.passed
        assert res.max_dev < 1e-10
        assert res.checked == 41 * 41

    def test_d2_moment_route_reads_the_table_argument(self):
        # the witness carries the recursion table; the moment route must read
        # the oracle passed in, or the two-route check compares one route
        rec = fourier_table_recursion(40, 1e-12)
        oracle = fourier_table_ifs(40, 14)
        coeffs = oracle.coeffs.copy()
        coeffs[40 - 5] += 1e-6  # sigma_hat(-5): moment((5, 5)) moves by 2^-5 1e-6
        shifted = dataclasses.replace(oracle, coeffs=coeffs)
        res = henkin_identity_check("D2", 40, build_witness("D2", 40, rec), table=shifted)
        assert res.failures == ((5, 5),) and not res.passed

    def test_tol_is_d2_only_and_checked(self):
        # D4 compares exact rationals: a tol would be accepted and ignored
        w4 = build_witness("D4", 1)
        for tol in (-1.0, 1e-10):
            with pytest.raises(ValueError, match="takes no tol"):
                henkin_identity_check("D4", 4, w4, tol=tol)
        rec = fourier_table_recursion(10, 1e-12)
        oracle = fourier_table_ifs(10, 14)
        w2 = build_witness("D2", 10, rec)
        for tol in (0.0, -1e-10, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                henkin_identity_check("D2", 10, w2, table=oracle, tol=tol)
        # the default is 1e-10: a deviation above it fails, one below passes
        res = henkin_identity_check("D2", 10, w2, table=oracle)
        assert res.passed and 0.0 < res.max_dev < 1e-10
        assert not henkin_identity_check("D2", 10, w2, table=oracle, tol=res.max_dev / 2).passed

    def test_d2_missing_table_rejected(self):
        rec = fourier_table_recursion(10, 1e-12)
        w = build_witness("D2", 10, rec)
        with pytest.raises(ValueError):
            henkin_identity_check("D2", 10, w)


class TestNonHenkin:
    def test_integrals_one_and_interior_decay(self):
        rep = non_henkin_witness(n_max=20, grid_points=400, seed=7)
        assert rep.passed
        assert rep.integrals_all_one
        assert rep.max_base_abs < 0.9
        assert rep.max_fn_final < 1e-6
        assert rep.origin_value_final == 2.0 ** -1000

    def test_decay_threshold_location(self):
        rep = non_henkin_witness(n_max=5, grid_points=300, seed=3)
        assert 1 <= rep.n_below_threshold <= 1000
        assert rep.max_base_abs ** rep.n_below_threshold < 1e-6

    def test_radius_bound_respected(self):
        # max |(1 + r)/2| on the ball of radius rho is (1 + rho^4)/2 at most
        rep = non_henkin_witness(n_max=2, grid_points=2000, grid_radius=0.5, seed=9)
        assert rep.sampled_max_base_abs <= rep.max_base_abs == 0.5 * (1 + 0.5 ** 4)

    @pytest.mark.parametrize("rho", [0.9, 0.5, 0.99, 0.3])
    def test_closed_form_sup_and_first_n_below_threshold(self, rho):
        base = (1 + Fraction(rho) ** 4) / 2
        rep = non_henkin_witness(n_max=2, grid_points=100, grid_radius=rho, seed=1)
        assert Fraction(rep.max_base_abs) >= base
        assert Fraction(math.nextafter(rep.max_base_abs, 0.0)) < base
        n = rep.n_below_threshold
        assert base ** n < Fraction(1e-6) <= base ** (n - 1)
        assert Fraction(rep.max_fn_final) >= base ** 1000
        assert rep.sup_ball_abs == 1.0 and rep.passed

    def test_first_n_below_threshold_at_the_default_radius(self):
        # (1 + 0.9^4)/2 = 0.82805, sampled maxima gave 59 and 64
        assert non_henkin_witness(n_max=2, grid_points=10).n_below_threshold == 74

    def test_no_first_n_within_the_decay_horizon(self):
        rep = non_henkin_witness(n_max=2, grid_points=10, grid_radius=0.999999)
        assert rep.n_below_threshold == -1 and not rep.passed

    def test_a_sample_above_the_closed_form_fails(self, monkeypatch):
        r_values = henkin._r_values
        monkeypatch.setattr(henkin, "_r_values", lambda points, c: 1.25 * r_values(points, c))
        rep = non_henkin_witness(n_max=2, grid_points=1000, grid_radius=0.5, seed=3)
        assert rep.sampled_max_base_abs > rep.max_base_abs and not rep.passed

    def test_rejects_exterior_radius(self):
        with pytest.raises(ValueError):
            non_henkin_witness(grid_radius=1.0)

    def test_nan_in_a_later_closed_ball_block_fails_the_sup(self, monkeypatch):
        r_values = henkin._r_values

        def nan_in_last_blocks(points, c):
            r = r_values(points, c)
            if len(points) <= 10:  # the last block of the ball and of the sphere
                r[0] = np.nan
            return r

        monkeypatch.setattr(henkin, "_r_values", nan_in_last_blocks)
        rep = non_henkin_witness(n_max=2, grid_points=16 * henkin._BALL_BLOCK + 10, seed=5)
        assert not rep.sup_ball_ok and not rep.passed

    @pytest.mark.parametrize("grid_points", [1, 1000, henkin._BALL_BLOCK + 1,
                                             16 * henkin._BALL_BLOCK + 10])
    def test_blocked_draws_equal_one_shot_samples(self, grid_points):
        rep = non_henkin_witness(n_max=2, grid_points=grid_points, seed=11)
        rng = np.random.default_rng(11)
        interior = r4(ball(grid_points, rng, 4, 0.9))
        max_base = float(np.max(np.abs(0.5 * (1.0 + interior))))
        closed = r4(np.vstack([ball(grid_points, rng, 4, 1.0), sphere(grid_points, rng, 4)]))
        sup_f1 = float(np.max(np.abs(0.5 * (1.0 + closed))))
        assert rep.sampled_max_base_abs.hex() == max_base.hex()
        assert rep.sup_ball_ok == (sup_f1 <= 1.0 + 1e-12)

    def test_wrong_moment_fails_every_integral_that_uses_it(self, monkeypatch):
        j0 = 7
        perturb_diagonal_moment(monkeypatch, j0)
        rep = non_henkin_witness(n_max=20, grid_points=100, seed=7)
        assert rep.integral_failures == tuple(range(j0, 21))
        assert not rep.integrals_all_one and not rep.passed


class TestPeak:
    @staticmethod
    def unblocked(samples, seed, delta, peak_tol=1e-12):
        """peak_check with every point of a phase held at once: the reference
        for the blocked reductions."""
        rng = np.random.default_rng(seed)
        support = d4_points(samples, rng)
        support_dev = float(np.max(np.abs(np.sum(np.abs(support) ** 2, axis=1) - 1.0)))
        f_support = 0.5 * (1.0 + r4(support))
        max_peak_dev = float(np.max(np.abs(f_support - 1.0)))
        half = samples // 2
        pts = np.vstack([ball(samples - half, rng, 4, 1.0), sphere(half, rng, 4)])
        r_vals = r4(pts)
        mask = np.abs(r_vals - 1.0) > delta
        margins = 1.0 - np.abs(0.5 * (1.0 + r_vals[mask]))
        min_margin = float(np.min(margins)) if len(margins) else math.inf
        all_inside = bool(np.all(margins > 0.0)) if len(margins) else True
        passed = max_peak_dev <= peak_tol and support_dev <= peak_tol and all_inside
        return PeakReport(max_peak_dev, support_dev, int(mask.sum()), int((~mask).sum()),
                          min_margin, all_inside, passed)

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.3])
    # either side of one block and of eight, a lone last row among them, and
    # 24 blocks and a few rows
    @pytest.mark.parametrize("samples", [1, 2, MB - 1, MB, MB + 1, 8 * MB - 1, 8 * MB, 8 * MB + 1,
                                         24 * MB + 7])
    def test_blocked_equals_unblocked(self, samples, delta):
        seed = samples % 1009
        assert repr(peak_check(samples, seed, delta)) == repr(self.unblocked(samples, seed, delta))

    def test_nan_in_a_later_block_fails_the_check(self, monkeypatch):
        target = MB + 5  # a row of the second support block
        seen = [0]
        unit_phases = henkin._unit_phases

        def phases_with_nan(x, out):
            unit_phases(x, out)
            if 0 <= target - seen[0] < len(out):
                out[target - seen[0], 0] = np.nan
            seen[0] += len(out)

        monkeypatch.setattr(henkin, "_unit_phases", phases_with_nan)
        rep = peak_check(MB + 10, 4)
        assert math.isnan(rep.max_peak_dev) and math.isnan(rep.support_dev)
        assert not rep.passed
        # the closed-ball half does not see the support's NaN
        want = dataclasses.replace(self.unblocked(MB + 10, 4, 1e-2), max_peak_dev=math.nan,
                                   support_dev=math.nan, passed=False)
        assert repr(rep) == repr(want)

    def test_peaks_on_support_strict_inside(self):
        rep = peak_check(samples=4000, seed=21)
        assert rep.passed
        assert rep.max_peak_dev <= 1e-12
        assert rep.support_dev <= 1e-12
        assert rep.min_margin > 0.0

    def test_margin_scales_with_delta(self):
        loose = peak_check(samples=4000, seed=21, delta=0.3)
        tight = peak_check(samples=4000, seed=21, delta=1e-3)
        assert loose.min_margin >= tight.min_margin
        assert loose.rejected >= tight.rejected

    def test_no_kept_sample_writes_null_margin(self):
        rep = peak_check(samples=1, seed=0, delta=100.0)
        assert rep.kept == 0 and rep.min_margin == math.inf
        js = rep.margin_json()
        assert js["min_margin"] is None
        assert js["min_margin_reason"] == "no sample outside delta"

    def test_input_guards(self):
        with pytest.raises(ValueError):
            peak_check(samples=0)
        with pytest.raises(ValueError):
            peak_check(delta=0.0)
        with pytest.raises(ValueError, match=f"samples must be in \\[1, {henkin.MAX_PEAK_SAMPLES}\\]"):
            peak_check(samples=henkin.MAX_PEAK_SAMPLES + 1)

    @pytest.mark.parametrize("samples", [1, 2, 3, 5, 8 * MB + 1, 24 * MB + 7])
    def test_report_does_not_depend_on_worker_count(self, samples, monkeypatch):
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_workers, "WORKERS", workers)
            threads = threading.active_count()
            reports.append(repr(peak_check(samples, samples % 11, 0.05)))
            assert threading.active_count() == threads
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_traced_memory_at_a_million_samples(self):
        # a support block of _MC_BLOCK points with its draws and
        # temporaries, 1.8 MiB; the closed-ball half then holds its radii,
        # 3.8 MiB, and a block of normals, 256 KiB: 4.5 MiB traced
        np.random.default_rng(0).random()  # numpy.random imports lazily
        tracemalloc.start()
        try:
            peak_check(10 ** 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


class TestFunctionalBound:
    # the bound |integral(phi dmu)| <= ||phi|| ||g|| at phi = g, where it is
    # an equality
    def test_d4_bound_holds(self):
        for n in (0, 1, 6, 12):
            w = build_witness("D4", n)
            # the moment route, term by term: g_k 16^(-k) = a_k
            assert sum(g * Fraction(1, 16 ** k) for k, g in enumerate(w.diag)) == w.norm_sq
            rep = extremal_bound_check(w)
            assert rep.passed
            assert (rep.ratio, rep.route_gap, rep.tolerance) == (1.0, 0.0, 0.0)

    def test_d2_bound_holds(self):
        for n in (0, 20, 100):
            w = build_witness("D2", n, fourier_table_recursion(n, 1e-12))
            rep = extremal_bound_check(w)
            assert rep.passed
            assert rep.tolerance == 2.0 * (n + 32) * 2.0 ** -53 * w.norm_sq
            assert rep.route_gap <= rep.tolerance
            assert rep.ratio == pytest.approx(1.0, abs=1e-15)

    def test_a_wrong_norm_fails_either_way(self):
        # random polynomials phi could not see a norm that was too large
        for w in (build_witness("D4", 12),
                  build_witness("D2", 100, fourier_table_recursion(100, 1e-12))):
            for factor in (4, Fraction(1, 4), 1 + Fraction(1, 10 ** 12)):
                wrong = dataclasses.replace(w, norm_sq=w.norm_sq * factor)
                rep = extremal_bound_check(wrong)
                assert not rep.passed and rep.route_gap > rep.tolerance
