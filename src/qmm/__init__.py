"""Computational toolkit for quartic Hermitian matrix models.

Exact and asymptotic enumeration of zero-diagonal symmetric integer
matrices, volumes of diagonal subpolytopes of symmetric stochastic
matrices, monic orthogonal-polynomial tables for the quartic weight,
determinant identities, saddle-point/oscillatory quadrature, and
partition-function evaluators, each cross-checked against independent
oracles.
"""

from .asymcount import asymptotic_count, coverage_fraction, lambda_star, lower_bound
from .counting import RowSumSpec, count_row_sums, count_total
from .numkit import LogValue, distinct_partition_count, lambert_w
from .orthopoly import gamma_quarter_det, ops_from_moments, quartic_r_sequence, u_coefficients
from .partition import (
    KineticSpectrum,
    hciz_value,
    z_free,
    z_mc_eigen,
    z_mc_matrix,
    z_weak,
    z_zero_kinetic,
)
from .polytope import (
    DiagonalSpec,
    asymptotic_volume,
    exact_volume_n3,
    exact_volume_n4,
    mc_volume,
    mc_volume_peel,
)
from .quadrature import k_series, laplace_peak, pearcey_region, quartic_gauss_saddle

__version__ = "0.1.0"

__all__ = [
    "LogValue",
    "RowSumSpec",
    "DiagonalSpec",
    "KineticSpectrum",
    "asymptotic_count",
    "asymptotic_volume",
    "count_row_sums",
    "count_total",
    "coverage_fraction",
    "distinct_partition_count",
    "exact_volume_n3",
    "exact_volume_n4",
    "gamma_quarter_det",
    "hciz_value",
    "k_series",
    "lambda_star",
    "lambert_w",
    "laplace_peak",
    "lower_bound",
    "mc_volume",
    "mc_volume_peel",
    "ops_from_moments",
    "pearcey_region",
    "quartic_gauss_saddle",
    "quartic_r_sequence",
    "u_coefficients",
    "z_free",
    "z_mc_eigen",
    "z_mc_matrix",
    "z_weak",
    "z_zero_kinetic",
]
