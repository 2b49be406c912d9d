"""Verification toolkit for singular representing measures on the unit
sphere and their exact Drury-Arveson certificates."""

from .exact import (
    MultiIndex,
    Polynomial,
    QComplex,
    format_rational,
    multi_indices,
)
from .norms import (
    compose_with_r,
    da_inner,
    extension_norm_check,
    isometry_check,
    monomial_norm_sq,
    r_power_norm_sq,
    stirling_ratio,
)
from .disc_kernel import (
    KernelSequence,
    build_kernel_sequence,
    dirichlet_coeff_check,
)
from .cantor import (
    EnergyEstimate,
    FourierTable,
    fourier_table_ifs,
    fourier_table_recursion,
    riesz_energy,
    support_measure_zero,
    weighted_fourier_sum,
)
from .henkin import (
    HenkinWitness,
    PushforwardMeasure,
    build_witness,
    extremal_bound_check,
    henkin_identity_check,
    mc_moment,
    non_henkin_witness,
    peak_check,
)
from .compression import (
    MultMatrix,
    compression_norm,
    diagonal_shift_weights,
    mult_matrix,
    r_polynomial,
    top_singular_value,
)
from .reports import report_schema_version

__version__ = "0.1.0"
