"""Theta characteristics over F2, theta-constant numerics, and moduli slopes."""

from .amplitude import P_i_g, factorization_residual, xi_g
from .boundary import (
    DualGraph,
    Edge,
    ThComponentReport,
    Vertex,
    betti_and_genus,
    boundary_degrees_odd,
    even_edge_sets,
    th_components,
)
from .characteristics import (
    Characteristic,
    CharSystem,
    all_characteristics,
    difference_rank,
    enumerate_fundamental_systems,
    enumerate_gopel_systems,
    enumerate_syzygetic_tetrads,
    fundamental_system_count,
    is_syzygetic,
    quartic_coordinate_check,
    sp_group_order,
    triple_sum,
)
from .picard import (
    DivClass,
    SlopeResult,
    bn_applicable,
    canonical_class,
    general_type_test,
    named_class,
    pullback,
    slope_combination,
)
from .symplectic import (
    F2Vector,
    SpMatrix,
    arf,
    enumerate_forms,
    eval_form,
    form_difference,
    identity_matrix,
    random_symplectic,
    sp_apply,
    translate_form,
    transvection,
    weil_pairing,
)
from .theta import (
    PeriodMatrix,
    Tolerance,
    block_diag,
    theta_constant,
    theta_constant_table,
    theta_report,
    theta_with_char,
    truncation_radius,
)
from .verify import AcceptanceReport, CriterionResult, run_acceptance

__version__ = "0.1.0"
