"""Discrete trigonometric analysis on the 30-60-90 triangle, Chebyshev-type
polynomial families on the deltoid-bounded domain, the associated
two-parameter Sturm-Liouville operator, and Gauss-type cubature rules."""

from .coords import (
    A2,
    A2_STAR,
    G2,
    GroupElem,
    HexIndex,
    TriplePoint,
    hat,
    make_index,
    make_point,
    orbit_size,
    point_from_index,
)
from .gentrig import (
    TrigFamily,
    eval as trig_eval,
    product_expand,
    xy_map,
)
from .lattice import (
    dim_pi_star,
    enum_gamma,
    enum_upsilon,
    upsilon_weight,
)
from .poly import BivarPoly, star_key
from .sturm import (
    MIndex,
    OperatorCoeffs,
    WeightParams,
    apply_L,
    continuous_inner,
    eigen_poly,
    eigen_residual,
    eigenvalue,
    jacobi_poly,
    moments,
    monomial_image,
    operator_coeffs,
    selfadjointness_check,
    star_class,
    star_indices_upto,
)
from .chebyshev import (
    cheb_eval_trig,
    cheb_poly,
    deltoid_F,
    deltoid_factors,
    normalization_c,
    orthogonality_constant,
    weight_mass,
    weight_w,
)
from .cubature import (
    CubatureRule,
    integrate,
    integrate_poly,
    make_rule,
    reference_integral,
    rule_to_csv,
    rule_to_json,
)
from .quad import QuadratureError
from .verify import variety_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
