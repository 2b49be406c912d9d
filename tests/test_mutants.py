"""Which check rows can fail: each entry breaks the library in one way and
names the rows of one stage of `daverify all` that must then fail.

Every stage runs with the parameters `daverify all` pins, through its own
`checks` function only. Every row of a stage listed here is flipped by some
entry, apart from DATA_ROWS, which record data and cannot fail. A row that
no entry flips would pass whatever the library computed.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from daverify import cantor, checks, henkin
from daverify.henkin import PushforwardMeasure

_R_VALUES = henkin._r_values
_SAMPLE = PushforwardMeasure.sample
_MOMENT = PushforwardMeasure.moment
_CONJ_R_MOMENT = PushforwardMeasure.conj_r_moment
_IFS = cantor.fourier_table_ifs
_BUILD_WITNESS = henkin.build_witness


def r_values_times_5_4(mp):
    mp.setattr(henkin, "_r_values", lambda points, c: 1.25 * _R_VALUES(points, c))


def sample_unconjugated(mp):
    # the last coordinate without its conjugate: r no longer pushes to e^(2 pi i t)
    def sample(self, count, rng):
        pts = _SAMPLE(self, count, rng)
        pts[:, -1] = np.conj(pts[:, -1])
        return pts
    mp.setattr(PushforwardMeasure, "sample", sample)


def sample_off_sphere(mp):
    mp.setattr(PushforwardMeasure, "sample",
               lambda self, count, rng: 1.01 * _SAMPLE(self, count, rng))


def diagonal_moment_times_5_4(mp):
    def moment(self, alpha):
        m = _MOMENT(self, alpha)
        return m * Fraction(5, 4) if len(set(alpha)) == 1 and alpha[0] > 0 else m
    mp.setattr(PushforwardMeasure, "moment", moment)


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


def witness_norm_quartered(mp):
    def build(*args, **kwargs):
        w = _BUILD_WITNESS(*args, **kwargs)
        return dataclasses.replace(w, norm_sq=w.norm_sq / 4)
    mp.setattr(henkin, "build_witness", build)


# (stage as `daverify all` labels it, the entry's mutation, the rows it flips)
ENTRIES = [
    ("moments[d4]", sample_unconjugated, {"moments/batch-4-sigma-agreement"}),
    ("moments[d2]", sample_unconjugated, {"moments/batch-4-sigma-agreement"}),
    ("henkin-check[d4]", conj_r_moment_doubled_at_1, {"henkin/d4-exact-identity"}),
    ("henkin-check[d2]", ifs_sigma_hat_1_times_1_01, {"henkin/d2-two-route-identity"}),
    ("witness[d4]", conj_r_moment_doubled_at_1,
     {"witness/d4-first-coefficients", "witness/d4-reproduces-moments"}),
    ("witness[d4]", diagonal_moment_times_5_4,
     {"witness/d4-integrals-stay-one", "witness/d4-reproduces-moments"}),
    ("witness[d4]", r_values_times_5_4, {"witness/d4-interior-decay"}),
    ("witness[d4]", witness_norm_quartered, {"witness/d4-functional-bound"}),
    # both norm routes read conj_r_moment, so doubling it leaves their
    # difference alone; only the IFS table moves one route
    ("witness[d2]", ifs_sigma_hat_1_times_1_01, {"witness/d2-norm-two-routes"}),
    ("witness[d2]", conj_r_moment_doubled_at_1, {"witness/d2-norm-below-weighted-sum"}),
    ("witness[d2]", witness_norm_quartered, {"witness/d2-functional-bound"}),
    ("peak-check", r_values_times_5_4,
     {"peak/equals-one-on-support", "peak/strictly-inside-off-support"}),
    ("peak-check", sample_off_sphere, {"peak/equals-one-on-support", "peak/support-on-sphere"}),
]

# rows hard-wired to pass: data fields, not checks (ROADMAP item 1)
DATA_ROWS = {"witness/serialized"}

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
    for stage, rows in unmutated.items():
        named = set().union(*(flipped for s, _, flipped in ENTRIES if s == stage))
        assert set(rows) - DATA_ROWS == named, stage
