"""lfunclab: coefficient algebra, sieve bounds, and zero-detection
constants for families of L-functions, with every desk-verifiable
identity and inequality wired to a test.
"""

from .ideals import (
    IdealIndex,
    NumberFieldSpec,
    enumerate_ideals,
    gcd_lcm,
    split_prime,
)
from .localdata import (
    ArchimedeanParameters,
    Family,
    LocalParameters,
    Representation,
    analytic_conductor,
    contragredient,
    dirichlet_character_family,
    dirichlet_family_by_modulus,
    ingest_hecke_eigenvalues,
    synthetic_family,
    trivial_representation,
)
from .coeffs import (
    CoefficientSeries,
    dirichlet_convolve,
    expand_global,
    local_lambda,
    mertens_sum,
    rankin_selberg_local,
)
from .covers import (
    CoverDecomposition,
    bilinear_inequality_check,
    coefficient_matrix,
    cover_add,
    cover_exp,
    cover_mul,
    cover_scale,
    gl1_log_decomposition,
)
from .sieve import (
    SieveWeights,
    bound_table,
    diagonal_lower_bound_check,
    g_factor,
    mvt_mu,
    selberg_weights,
    sieve_constant,
    sifted_sum_check,
    smooth_sum_residue,
)
from .detect import (
    DetectionConfig,
    build_detection_config,
    density_scan,
    detection_bounds,
    family_count_bound,
    hadamard_zero_sum,
    high_derivative,
    jk,
    jk_tail_bounds_check,
    parse_zeros_file,
    solve_constants,
    turan_existence,
)

__version__ = "0.1.0"
