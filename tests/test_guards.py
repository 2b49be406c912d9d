"""Library entry points refuse their own bad inputs and compute budgets with
ConfigError, before they allocate anything, so a library caller gets the
refusals the CLI gives."""

import math
import tracemalloc

import pytest

from daverify import cantor, checks, cli, compression, disc_kernel, henkin, norms
from daverify.exact import ConfigError

TABLE = cantor.fourier_table_recursion(401, 1e-12)
W4 = henkin.build_witness("D4", 10)
W2 = henkin.build_witness("D2", 4, TABLE)
R4 = compression.mult_matrix(compression.r_polynomial(4), 2)

CASES = [
    # a nan or infinite delta kept no point and passed
    (lambda: henkin.peak_check(1000, 0, delta=math.nan), "delta"),
    (lambda: henkin.peak_check(1000, 0, delta=math.inf), "delta"),
    (lambda: henkin.peak_check(1000, 0, delta=-1.0), "delta"),
    # a nan eps gave a wrong sum, and a tiny one overflowed float(3 ** j)
    (lambda: cantor.weighted_fourier_sum(10, eps=math.nan), "eps"),
    (lambda: cantor.weighted_fourier_partials([10], eps=math.inf), "eps"),
    (lambda: cantor.fourier_table_recursion(2 ** 20, 1e-320), "eps"),
    (lambda: cantor.recursion_depth(5, 0.0), "eps"),
    (lambda: henkin.mc_moment_batch("D4", 10, 1000, 0, max_exp=-1), "max_exp"),
    (lambda: henkin.mc_moment_batch("D2", 10, 1000, 0, max_exp=cantor.MAX_TABLE_N + 1),
     "max_exp"),
    (lambda: henkin.mc_moment_batch("D4", 0, 1000, 0), "count"),
    (lambda: henkin.mc_moment("D4", (cantor.MAX_TABLE_N + 1,) * 4, 1000, 0), "alpha"),
    (lambda: disc_kernel.build_kernel_sequence(4, 5001), r"N must be in \[0, 5000\]"),
    (lambda: disc_kernel.build_kernel_sequence(2, -1), "N must be"),
    (lambda: henkin.build_witness("D4", 201), r"N must be in \[0, 200\]"),
    (lambda: henkin.build_witness("D2", 401, TABLE), r"N must be in \[0, 400\]"),
    (lambda: henkin.henkin_identity_check("D4", 41, W4), r"maxdeg must be in \[0, 40\]"),
    (lambda: henkin.henkin_identity_check("D2", 401, W2, table=TABLE),
     r"maxdeg must be in \[0, 400\]"),
    (lambda: henkin.henkin_identity_check("D4", -1, W4), "maxdeg"),
    (lambda: compression.mult_matrix(compression.r_polynomial(4), 13), "section N"),
    (lambda: compression.mult_matrix(compression.r_polynomial(2), -1), "section N"),
    (lambda: R4.section(-1), "section N"),
    (lambda: R4.section(3), "section N"),
    (lambda: cantor.riesz_energy(cantor.MAX_ENERGY_LEVEL + 1), "level"),
    (lambda: cantor.fourier_table_ifs(8, cantor.MAX_IFS_LEVEL + 1), "level"),
    (lambda: cantor.fourier_table_ifs(cantor.MAX_TABLE_N + 1, 4), "max_n"),
    # an alpha of the wrong length was refused only after the sample was drawn
    (lambda: henkin.mc_moment("D4", (1, 1), 10 ** 6, 0), "length 4"),
    # D2 built its recursion table to max(alpha) before refusing the length
    (lambda: henkin.mc_moment("D2", (2 ** 20, 0, 0, 0), 1000, 0), "length 2"),
    # a huge count looped over its multi-indices in Python without end
    (lambda: henkin.mc_moment_batch("D4", henkin.MAX_MC_COUNT + 1, 1000, 0),
     r"count must be in \[1, 1000\]"),
    (lambda: henkin.non_henkin_witness(n_max=henkin.MAX_NON_HENKIN_N + 1), "n_max"),
    (lambda: henkin.non_henkin_witness(grid_points=henkin.MAX_GRID_POINTS + 1), "grid_points"),
    # a block holds every column power its multi-indices read: 3996 of them here
    (lambda: henkin.mc_moment_batch("D4", 1000, 10 ** 6, 0, max_exp=1000), "250 MB budget"),
    (lambda: henkin.mc_moment_batch("D2", 1000, henkin.MAX_MC_SAMPLES, 0, max_exp=2000),
     "max_exp 2000"),
    # a huge count or degree ran without end
    (lambda: norms.isometry_check([0] * (norms.MAX_ISOMETRY_DEGREE + 2), 4),
     r"degree of f must be at most 400"),
    (lambda: checks.verify_isometry(count=checks.MAX_ISOMETRY_COUNT + 1),
     r"count must be in \[1, 1000\]"),
    (lambda: checks.verify_isometry(maxdeg=norms.MAX_ISOMETRY_DEGREE + 1),
     r"maxdeg must be in \[0, 400\]"),
]


@pytest.mark.parametrize("call, match", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_refused_before_any_allocation(call, match):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_one_error_type_for_library_and_cli():
    assert cli.ConfigError is ConfigError and issubclass(ConfigError, ValueError)


def test_budgets_at_their_limits_are_accepted():
    assert len(disc_kernel.build_kernel_sequence(2, 5000).a_exact) == 5001
    assert henkin.build_witness("D2", 400, TABLE).N == 400
    assert henkin.henkin_identity_check("D2", 400, henkin.build_witness("D2", 400, TABLE),
                                        table=TABLE).checked == 401 ** 2
    assert R4.section(2).shape == R4.entries.shape
    assert len(henkin.mc_moment_batch("D4", henkin.MAX_MC_COUNT, 1000, 0)) == 1000
    assert henkin.non_henkin_witness(n_max=henkin.MAX_NON_HENKIN_N, grid_points=10).passed
    # batches of the default max_exp on the most samples fit the budget
    for variant in ("D4", "D2"):
        assert henkin._batch_bytes(variant, henkin.MAX_MC_COUNT, henkin.MAX_MC_SAMPLES,
                                   6) <= henkin.MAX_MC_BYTES
    assert norms.isometry_check([1] * (norms.MAX_ISOMETRY_DEGREE + 1), 4).equal
    _, rows, _ = checks.verify_isometry(count=checks.MAX_ISOMETRY_COUNT, maxdeg=2)
    assert all(row["pass"] for row in rows)


def test_batch_charge_is_what_a_block_holds():
    # charged 2,000 MB as whole-sample arrays, though it holds one block of rows
    assert henkin._batch_bytes("D4", 1000, 10 ** 6, 40) <= henkin.MAX_MC_BYTES
    # a block holds every column power its multi-indices read: 4 (max_exp - 1)
    # of them, or 4 per multi-index where there are fewer multi-indices
    assert henkin._batch_bytes("D4", 1000, 10 ** 6, 1000) > henkin.MAX_MC_BYTES
    assert henkin._batch_bytes("D4", 10, 10 ** 6, 1000) == henkin._batch_bytes("D4", 10, 10 ** 6, 11)
    # D2 holds its raw draws whole, 16 bytes a point
    grown = henkin._batch_bytes("D2", 10, 2 * 10 ** 6, 6) - henkin._batch_bytes("D2", 10, 10 ** 6, 6)
    assert grown >= 16 * 10 ** 6


@pytest.mark.parametrize("variant", ["D4", "D2"])
def test_batch_charge_tracks_the_traced_peak(variant):
    samples = 3 * henkin._MC_BLOCK + 7
    henkin.mc_moment_batch(variant, 1, 1000, 0, max_exp=20)  # the D2 table, cached
    tracemalloc.start()
    try:
        henkin.mc_moment_batch(variant, 300, samples, 0, max_exp=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    charge = henkin._batch_bytes(variant, 300, samples, 20)
    assert 0.8 * charge <= peak <= 1.2 * charge
