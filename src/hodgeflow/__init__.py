"""Exact-arithmetic engine for the flow / raising-operator identities.

Everything is computed over arbitrary-precision rationals inside finite
truncation windows; every check compares both sides of an identity
coefficient by coefficient with zero tolerance.
"""

from .rationals import bernoulli, binomial, odd_double_factorial
from .series import (
    Monomial,
    ParamId,
    Series,
    Truncation,
    TruncationError,
    VarId,
    basis_monomials,
    exp_nilpotent,
    omega_param,
    q_var,
    random_series,
    t_var,
)
from .operators import GradingError, Operator, OperatorClassError
from .pairing import Pairing, hyperbolic2_pairing, pairing_from_spec, point_pairing
from .report import Report
from .special import (
    b_omega,
    c_const,
    phi,
    phi_tilde,
    q_omega,
    q_u,
    r_poly,
    rhs_target,
    solve_a_coeffs,
)
from .hodge import (
    build_d,
    build_p,
    build_w_omega,
    build_w_u,
    hat_t,
    instantiate_omega,
    theta_map,
)
from .virasoro import build_l, build_virasoro, build_x, build_y, delta_map
from .witten import intersection, z_point
from .pipeline import (
    ALL_SUITES,
    VerificationConfig,
    change_vars,
    run_suite,
    u_zero_substitute,
    verify_hodge_to_gw,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
