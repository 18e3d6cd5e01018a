"""Exact structure-constant computations with finite group schemes, their
Drinfeld doubles, Hopf quotient pairs D(K, H, B), and the lattice of braided
subcategories these classify."""

from .fields import binomial, factorial_unit, make_field, parse_field_token
from .hopf import (
    HopfAlgebra,
    LinMap,
    convolution,
    convolution_inverse,
    dual_hopf,
    grouplikes,
    hopf_algebra_maps,
    is_hopf_morphism,
    tensor_hopf,
    verify_hopf,
)
from .groupschemes import (
    GroupScheme,
    SubgroupScheme,
    ad_l,
    centralize,
    cleaving_gamma,
    constant_group,
    direct_product,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    intersect_subgroup,
    mu_p_kernel,
    product_subgroup,
    quotient_by_normal,
    restricted_enveloping,
    section_mu,
    subgroup_from_generators,
    trivial_subgroup,
)
from .doubles import (
    QuasiHopfData,
    drinfeld_double,
    is_factorizable,
    is_triangular,
    verify_quasitriangular,
    verify_ribbon,
)
from .quotients import (
    QuotientPair,
    Triple,
    build_quotient,
    build_sigma,
    build_tau,
    dot_action,
    quotient_r_and_v,
    recognize_triple,
    theta_kernel_matches_ideal,
    trivial_hopf_map,
)
from .lattice import (
    block_data,
    centralizer_triple,
    classify,
    enumerate_triples,
    hasse_dot,
)

__version__ = "0.1.0"
