"""Desk-scale numerical laboratory for Selberg integrals of the
three-divisor function: exact divisor sieves, residue polynomials from the
zeta Laurent data, short-interval mean squares with sharp and Cesaro
windows, exact correlation/kernel identities on the Fourier side, and the
exponent calculus tying the modified integral to the sharp one.
"""

from .arith_core import (
    BalancedSequence,
    DEFAULT_STIELTJES,
    DivisorTable,
    LogPolynomial,
    StieltjesConstants,
    Window,
    balanced_sequence,
    balanced_window,
    load_table,
    residue_polynomial,
    save_table,
    sieve_dk,
    stieltjes_constant,
    summatory_polynomial,
)
from .asymptotics import (
    ExponentParams,
    FitReport,
    balance_check,
    exponent_map,
    fit_exponent,
    optimal_eps_E,
)
from .selberg import (
    IntegralReport,
    box_deviations,
    cesaro_sum,
    integral_pair,
    mean_value,
    modified_selberg_integral,
    selberg_integral,
    short_sum,
    triangle_deviations,
)
from .spectral import (
    CorrelationTable,
    autocorrelation,
    band_energy,
    box_autocorrelation,
    correlation,
    correlation_route_check,
    dirichlet_kernel_abs,
    gallagher_check,
    kernel_localization_check,
    route_correlation,
    spectral_energy,
    three_range_split,
    triangle_autocorrelation,
)

__version__ = "0.1.0"
