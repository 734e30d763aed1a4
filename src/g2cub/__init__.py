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
    cart_to_homog,
    compose,
    hat,
    in_fundamental_triangle,
    make_index,
    make_point,
    orbit,
    orbit_size,
    point_from_index,
)
from .gentrig import (
    TrigFamily,
    boundary_normal_derivative,
    eval as trig_eval,
    laplace_eigenvalue,
    phi,
    product_expand,
)
from .lattice import (
    dim_pi_star,
    enum_H,
    enum_gamma,
    enum_upsilon,
    hex_cubature,
    triangle_discrete_inner,
    upsilon_weight,
)
from .poly import BivarPoly, star_cmp, star_key
from .chebyshev import (
    MIndex,
    WeightParams,
    cheb_eval_trig,
    cheb_poly,
    continuous_inner,
    deltoid_F,
    deltoid_factors,
    normalization_c,
    orthogonality_constant,
    star_class,
    star_indices_upto,
    weight_mass,
    weight_w,
    xy_map,
)
from .sturm import (
    OperatorCoeffs,
    apply_L,
    eigen_poly,
    eigen_residual,
    eigenvalue,
    jacobi_poly,
    moments,
    monomial_image,
    operator_coeffs,
    selfadjointness_check,
)
from .cubature import (
    CubatureRule,
    integrate,
    integrate_poly,
    make_rule,
    reference_integral,
    rule_to_csv,
    rule_to_json,
    variety_check,
)
from .quad import QuadratureError

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
