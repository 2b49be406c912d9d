"""Which check rows can fail: each entry breaks the library in one way and
names the rows of one stage of `daverify all` that must then fail.

Every stage runs with the parameters `daverify all` pins, through its own
`checks` function only. Every stage is listed here, and every row of it is
flipped by some entry, apart from DATA_ROWS, which record data and cannot
fail. A row that no entry flips would pass whatever the library computed.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from daverify import cantor, checks, compression, disc_kernel, henkin, norms
from daverify.henkin import PushforwardMeasure

_R_VALUES = henkin._r_values
_POINTS = PushforwardMeasure.points
_MOMENT = PushforwardMeasure._moment
_CONJ_R_MOMENT = PushforwardMeasure.conj_r_moment
_IFS = cantor.fourier_table_ifs
_COS_PRODUCT = cantor._cos_product
_LEVEL_FACTOR = cantor._level_factor
_PHASES = cantor._phases
_RIESZ_ENERGY = cantor.riesz_energy
_SUPPORT_MEASURE_ZERO = cantor.support_measure_zero
_BUILD_WITNESS = henkin.build_witness
_MONOMIAL_NORM_SQ = norms.monomial_norm_sq
_R_POWER_NORM_SQ = norms.r_power_norm_sq
_MULTINOMIAL = norms._multinomial
_DISC_MAP_SCALE = norms.disc_map_scale
_NORMS_KERNEL_WEIGHTS = norms._kernel_weights
_KERNEL_WEIGHTS = disc_kernel._kernel_weights
_FLOAT_COEFFS = disc_kernel.float_coeff_sequence
_TOP_SINGULAR_VALUE = compression.top_singular_value


def hardy_space_norms(mp):
    # alpha! (d-1)! / (|alpha| + d - 1)!, the norms of the Hardy space of the
    # ball: equal to the Drury-Arveson ones in one variable only
    def norm_sq(alpha):
        d = len(alpha)
        return Fraction(math.prod(map(math.factorial, alpha)) * math.factorial(d - 1),
                        math.factorial(sum(alpha) + d - 1))
    mp.setattr(norms, "monomial_norm_sq", norm_sq)


def one_variable_norms_doubled(mp):
    mp.setattr(norms, "monomial_norm_sq", lambda alpha: (
        2 * _MONOMIAL_NORM_SQ(alpha) if len(alpha) == 1 and alpha[0] > 0
        else _MONOMIAL_NORM_SQ(alpha)))


def r_power_norm_doubled_at_d4_n1(mp):
    mp.setattr(norms, "r_power_norm_sq", lambda d, n: (
        2 * _R_POWER_NORM_SQ(d, n) if (d, n) == (4, 1) else _R_POWER_NORM_SQ(d, n)))


def norm_sq_at_3333_times_5_4(mp):
    # the inner-product route: da_inner reads ||z^alpha||^2 from norms
    mp.setattr(norms, "monomial_norm_sq", lambda alpha: (
        Fraction(5, 4) * _MONOMIAL_NORM_SQ(alpha) if alpha == (3, 3, 3, 3)
        else _MONOMIAL_NORM_SQ(alpha)))


def r_scale_plus_one(mp):
    # r = (c + 1) z_1...z_d: the composed polynomials leave the isometry
    mp.setattr(norms, "disc_map_scale", lambda d: _DISC_MAP_SCALE(d) + 1)


def disc_weight_a2_doubled(mp):
    # the disc side of the isometry; the examples have degree 1 or less
    def weights(d, count):
        a = _NORMS_KERNEL_WEIGHTS(d, count)
        if count > 2:
            a[2] *= 2
        return a
    mp.setattr(norms, "_kernel_weights", weights)


def multinomial_doubled_at_5(mp):
    # the closed form ||r^5||^2; the recurrence for a_n stays right
    mp.setattr(norms, "_multinomial",
               lambda d, n: 2 * _MULTINOMIAL(d, n) if n == 5 else _MULTINOMIAL(d, n))


def kernel_weight_a0_doubled(mp):
    def weights(d, count):
        a = _KERNEL_WEIGHTS(d, count)
        a[0] *= 2
        return a
    mp.setattr(disc_kernel, "_kernel_weights", weights)


def kernel_weight_a10_repeats_a9(mp):
    def weights(d, count):
        a = _KERNEL_WEIGHTS(d, count)
        a[10] = a[9]
        return a
    mp.setattr(disc_kernel, "_kernel_weights", weights)


def float_weights_times_1_1_past_5000(mp):
    mp.setattr(disc_kernel, "float_coeff_sequence", lambda d, n_max: _FLOAT_COEFFS(d, n_max)
               * np.where(np.arange(n_max + 1) > 5000, 1.1, 1.0))


def float_weight_a500_times_1_001(mp):
    # a_n (n+1)^(3/2) steps up at n = 500, which the tail estimate assumes
    # it never does; the envelope's 5% window still holds it
    mp.setattr(disc_kernel, "float_coeff_sequence", lambda d, n_max: _FLOAT_COEFFS(d, n_max)
               * np.where(np.arange(n_max + 1) == 500, 1.001, 1.0))


def float_weights_of_d2(mp):
    # a_n ~ (n+1)^(-1/2) in place of (n+1)^(-3/2): a_n (n+1)^(3/2) grows,
    # and the tail estimate from a_1000 reads 36 against its bound of 0.1
    mp.setattr(disc_kernel, "float_coeff_sequence", lambda d, n_max: _FLOAT_COEFFS(2, n_max))


def r_values_times_5_4(mp):
    mp.setattr(henkin, "_r_values", lambda points, c: 1.25 * _R_VALUES(points, c))


def sample_unconjugated(mp):
    # the last coordinate of the map without its conjugate: r no longer
    # pushes to e^(2 pi i t); the map feeds every sampled point of a measure
    def points(self, zeta, t):
        pts = _POINTS(self, zeta, t)
        pts[:, -1] = np.conj(pts[:, -1])
        return pts
    mp.setattr(PushforwardMeasure, "points", points)


def sample_off_sphere(mp):
    # every point of the map 1% off the sphere: the D4 support that
    # peak_check samples, where r = 1.01^4 and |z|^2 = 1.01^2
    mp.setattr(PushforwardMeasure, "points",
               lambda self, zeta, t: 1.01 * _POINTS(self, zeta, t))


def diagonal_moment_times_5_4(mp):
    # the formula that `moment` wraps and the identity check reads directly
    def moment(self, alpha):
        m = _MOMENT(self, alpha)
        return m * Fraction(5, 4) if len(set(alpha)) == 1 and alpha[0] > 0 else m
    mp.setattr(PushforwardMeasure, "_moment", moment)


def conj_r_moment_doubled_at_1(mp):
    mp.setattr(PushforwardMeasure, "conj_r_moment",
               lambda self, k: (2 if k == 1 else 1) * _CONJ_R_MOMENT(self, k))


def ifs_sigma_hat_1_times_1_01(mp):
    def ifs(max_n, level):
        table = _IFS(max_n, level)
        coeffs = table.coeffs.copy()
        coeffs[max_n - 1] *= 1.01
        coeffs[max_n + 1] *= 1.01
        return dataclasses.replace(table, coeffs=coeffs)
    mp.setattr(cantor, "fourier_table_ifs", ifs)


def cos_product_without_sign(mp):
    # odd n negated, which cancels the table's (-1)^n
    def cos_product(n_max, eps):
        v = _COS_PRODUCT(n_max, eps)
        v[1::2] *= -1.0
        return v
    mp.setattr(cantor, "_cos_product", cos_product)


def tiled_level_9_times_1_plus_1e_7(mp):
    def level_factor(x, period, out):
        f = _LEVEL_FACTOR(x, period, out)
        if period == 9:
            f *= 1.0 + 1e-7
        return f
    mp.setattr(cantor, "_level_factor", level_factor)


def level_9_angle_times_1_plus_1e_6(mp):
    # sigma_hat(3n) = sigma_hat(n) pairs level j at 3n with level j - 1 at n
    mp.setattr(cantor, "_level_factor", lambda x, period, out: _LEVEL_FACTOR(
        x * (1.0 + 1e-6) if period == 9 else x, period, out))


def ifs_phases_rotated_by_1e_6(mp):
    mp.setattr(cantor, "_phases", lambda ks, t: _PHASES(ks, t) * np.exp(1e-6j))


def weighted_terms_unsquared(mp):
    # sigma_hat(n) in place of |sigma_hat(n)|^2: terms of either sign
    def weighted_terms(n_max, eps):
        return _COS_PRODUCT(n_max, eps) * (np.arange(n_max + 1) + 1.0) ** -0.5
    mp.setattr(cantor, "_weighted_terms", weighted_terms)


def energy_bracket_swapped(mp):
    def riesz_energy(level):
        est = _RIESZ_ENERGY(level)
        return dataclasses.replace(est, lower=est.upper, upper=est.lower)
    mp.setattr(cantor, "riesz_energy", riesz_energy)


def unbounded_rounding_slack(mp):
    # widening by an infinite roundoff leaves the bracket ordered but infinite
    mp.setattr(cantor, "_UNIT_ROUNDOFF", math.inf)


def support_cover_of_level_0(mp):
    mp.setattr(cantor, "support_measure_zero", lambda level: _SUPPORT_MEASURE_ZERO(0))


def witness_norm_quartered(mp):
    def build(*args, **kwargs):
        w = _BUILD_WITNESS(*args, **kwargs)
        return dataclasses.replace(w, norm_sq=w.norm_sq / 4)
    mp.setattr(henkin, "build_witness", build)


def witness_norm_times_4(mp):
    def build(*args, **kwargs):
        w = _BUILD_WITNESS(*args, **kwargs)
        return dataclasses.replace(w, norm_sq=w.norm_sq * 4)
    mp.setattr(henkin, "build_witness", build)


def sigma_times_1_minus_1e_6(mp):
    mp.setattr(compression, "top_singular_value",
               lambda A: (1.0 - 1e-6) * _TOP_SINGULAR_VALUE(A))


def power_iteration_one_step(mp):
    # sigma from the Rayleigh quotient of the all-ones start: the root mean
    # square of the column norms, which falls as the section grows
    mp.setattr(compression, "_POWER_MAX_ITER", 1)


# (stage as `daverify all` labels it, the entry's mutation, the rows it flips)
ENTRIES = [
    ("verify-norms", hardy_space_norms,
     {"norms/kernel-expansion-oracle-d2", "norms/kernel-expansion-oracle-d3",
      "norms/kernel-expansion-oracle-d4", "norms/extension-isometric",
      "norms/frozen-examples"}),
    ("verify-norms", one_variable_norms_doubled,
     {"norms/kernel-expansion-oracle-d1", "norms/extension-isometric"}),
    ("verify-norms", r_power_norm_doubled_at_d4_n1, {"norms/frozen-examples"}),
    ("verify-isometry", r_scale_plus_one,
     {"isometry/random-exact-d2", "isometry/examples-d2", "isometry/random-exact-d4",
      "isometry/examples-d4"}),
    ("verify-isometry", disc_weight_a2_doubled,
     {"isometry/random-exact-d2", "isometry/random-exact-d4"}),
    ("verify-isometry", r_power_norm_doubled_at_d4_n1, {"isometry/examples-d4"}),
    ("kernel-table[d2]", multinomial_doubled_at_5,
     {"kernel/a-times-norm-is-one", "kernel/dirichlet-binomial-identity"}),
    ("kernel-table[d2]", kernel_weight_a0_doubled,
     {"kernel/a-times-norm-is-one", "kernel/a0-is-one"}),
    ("kernel-table[d2]", kernel_weight_a10_repeats_a9,
     {"kernel/a-times-norm-is-one", "kernel/positive-strictly-decreasing"}),
    ("kernel-table[d2]", float_weights_times_1_1_past_5000,
     {"kernel/normalized-ratio-envelope", "kernel/partial-sum-diverging-sqrt"}),
    ("kernel-table[d4]", multinomial_doubled_at_5, {"kernel/a-times-norm-is-one"}),
    ("kernel-table[d4]", kernel_weight_a0_doubled,
     {"kernel/a-times-norm-is-one", "kernel/a0-is-one"}),
    ("kernel-table[d4]", kernel_weight_a10_repeats_a9,
     {"kernel/a-times-norm-is-one", "kernel/positive-strictly-decreasing"}),
    ("kernel-table[d4]", float_weights_of_d2,
     {"kernel/normalized-ratio-envelope", "kernel/partial-sum-converging"}),
    ("kernel-table[d4]", float_weight_a500_times_1_001, {"kernel/partial-sum-converging"}),
    ("cantor-fourier", cos_product_without_sign, {"cantor/recursion-vs-ifs-oracle"}),
    ("cantor-fourier", tiled_level_9_times_1_plus_1e_7,
     {"cantor/coeff-at-zero-is-one", "cantor/modulus-at-most-one"}),
    ("cantor-fourier", level_9_angle_times_1_plus_1e_6,
     {"cantor/self-similarity-at-triples", "cantor/recursion-vs-ifs-oracle"}),
    # a common phase on the offset and the inner blocks: sigma_hat(n) turns
    # by 2e-6, and sigma_hat(-n) turns the same way instead of the opposite
    ("cantor-fourier", ifs_phases_rotated_by_1e_6,
     {"cantor/coeff-at-zero-is-one", "cantor/conjugate-symmetry",
      "cantor/recursion-vs-ifs-oracle"}),
    ("cantor-fourier", weighted_terms_unsquared, {"cantor/weighted-sum-nondecreasing"}),
    ("cantor-energy", energy_bracket_swapped,
     {"energy/lower-below-upper-L10", "energy/lower-below-upper-L12",
      "energy/lower-nondecreasing", "energy/upper-nonincreasing"}),
    ("cantor-energy", unbounded_rounding_slack, {"energy/upper-finite"}),
    ("cantor-energy", support_cover_of_level_0, {"energy/support-cover-shrinks"}),
    ("moments[d4]", sample_unconjugated, {"moments/batch-4-sigma-agreement"}),
    ("moments[d2]", sample_unconjugated, {"moments/batch-4-sigma-agreement"}),
    ("henkin-check[d4]", conj_r_moment_doubled_at_1, {"henkin/d4-exact-identity"}),
    ("henkin-check[d4]", norm_sq_at_3333_times_5_4, {"henkin/d4-exact-identity"}),
    ("henkin-check[d2]", ifs_sigma_hat_1_times_1_01, {"henkin/d2-two-route-identity"}),
    ("witness[d4]", conj_r_moment_doubled_at_1,
     {"witness/d4-first-coefficients", "witness/d4-reproduces-moments",
      "witness/d4-functional-bound"}),
    ("witness[d4]", diagonal_moment_times_5_4,
     {"witness/d4-integrals-stay-one", "witness/d4-reproduces-moments",
      "witness/d4-functional-bound"}),
    ("witness[d4]", r_values_times_5_4, {"witness/d4-interior-decay"}),
    ("witness[d4]", witness_norm_quartered, {"witness/d4-functional-bound"}),
    ("witness[d4]", witness_norm_times_4, {"witness/d4-functional-bound"}),
    # both norm routes read conj_r_moment, so doubling it leaves their
    # difference alone; only the IFS table moves one route
    ("witness[d2]", ifs_sigma_hat_1_times_1_01, {"witness/d2-norm-two-routes"}),
    ("witness[d2]", conj_r_moment_doubled_at_1,
     {"witness/d2-norm-below-weighted-sum", "witness/d2-functional-bound"}),
    ("witness[d2]", witness_norm_quartered, {"witness/d2-functional-bound"}),
    # 4 ||g||^2 = 5.14 is also above the weighted sum S(100) = 1.47
    ("witness[d2]", witness_norm_times_4,
     {"witness/d2-functional-bound", "witness/d2-norm-below-weighted-sum"}),
    ("peak-check", r_values_times_5_4,
     {"peak/equals-one-on-support", "peak/strictly-inside-off-support"}),
    ("peak-check", sample_off_sphere, {"peak/equals-one-on-support", "peak/support-on-sphere"}),
    ("compression[d2]", sigma_times_1_minus_1e_6,
     {"compression/matches-diagonal-weight", "compression/exceeds-multiplier-floor",
      "compression/bilinear-bound"}),
    ("compression[d2]", power_iteration_one_step,
     {"compression/nondecreasing-in-section", "compression/matches-diagonal-weight",
      "compression/exceeds-multiplier-floor", "compression/bilinear-bound"}),
    ("compression[d4]", sigma_times_1_minus_1e_6,
     {"compression/matches-diagonal-weight", "compression/exceeds-multiplier-floor",
      "compression/bilinear-bound"}),
    ("compression[d4]", power_iteration_one_step,
     {"compression/nondecreasing-in-section", "compression/matches-diagonal-weight",
      "compression/exceeds-multiplier-floor", "compression/bilinear-bound"}),
]

# rows hard-wired to pass: data fields, not checks (ROADMAP item 1)
DATA_ROWS = {"witness/serialized", "energy/consecutive-gaps-recorded"}

STAGES = {}
for command, pins in checks.PLAN:
    label = command if "dim" not in pins else f"{command}[d{pins['dim']}]"
    STAGES[label] = (command, pins)


def verdicts(label: str) -> dict[str, bool]:
    command, pins = STAGES[label]
    _, rows, _ = checks.COMMANDS[command](**pins)
    return {row["check"]: row["pass"] for row in rows}


@pytest.fixture(scope="module")
def unmutated():
    return {label: verdicts(label) for label in {stage for stage, _, _ in ENTRIES}}


@pytest.mark.parametrize("stage, mutate, flipped", ENTRIES,
                         ids=[f"{stage}-{mutate.__name__}" for stage, mutate, _ in ENTRIES])
def test_mutant_flips_exactly_its_rows(stage, mutate, flipped, unmutated, monkeypatch):
    assert all(unmutated[stage].values())
    mutate(monkeypatch)
    failed = {name for name, ok in verdicts(stage).items() if not ok}
    assert failed == flipped


def test_every_row_is_flipped_or_data(unmutated):
    assert set(unmutated) == set(STAGES)
    for stage, rows in unmutated.items():
        named = set().union(*(flipped for s, _, flipped in ENTRIES if s == stage))
        assert set(rows) - DATA_ROWS == named, stage
