"""arborium: exact poset and polytope invariants of arbors.

An arbor is a rooted tree whose vertices carry disjoint label sets
partitioning {1, ..., n}.  Each arbor determines a lattice polytope (one
inequality per sub-tree) and the poset of its lattice points.  This
package computes, in exact rational arithmetic, the height-weighted zeta
polynomial, the K polynomial and M-triangle, the Ehrhart polynomial, and
the Laplace transform of the volume function, and verifies the four
closed generating series for the fan family t_n against brute-force
oracles.
"""

from .algebra import (
    VARIABLES,
    ExactDivisionError,
    InterpolationError,
    MultiPoly,
    binom_poly,
    gens,
    int_binom,
    lagrange_interpolate,
    laplace_laurent,
    poly_from_terms,
    poly_to_terms,
    series_expand_rational,
    series_mul,
    series_pow_symbolic,
)
from .arbor import (
    Arbor,
    ArborError,
    Constraint,
    constraints,
    make_tn,
    parse_arbor,
    random_arbor,
    random_corpus,
    serialize_arbor,
)
from .invariants import (
    compute_invariants,
    ehrhart,
    ehrhart_heights,
    ehrhart_tn_closed,
    k_poly,
    k_tn_closed,
    laplace,
    laplace_tn_closed,
    m_from_k,
    m_triangle,
    m_tn_closed,
    truncate_laplace,
    volume,
    zeta_poly,
    zeta_tn_closed,
)
from .oracle import (
    Poset,
    build_poset,
    count_points,
    enumerate_points,
    height_distribution_oracle,
    k_oracle,
    m_triangle_oracle,
    mobius_oracle,
    zeta_oracle,
)
from .verify import (
    DEFAULT_ORDER,
    Report,
    verify_all,
    verify_ehrhart,
    verify_laplace,
    verify_m_triangle,
    verify_zeta,
)

__version__ = "0.1.0"
