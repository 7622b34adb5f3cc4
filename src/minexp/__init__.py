"""Exact singularity invariants of cones over complete intersections.

Three independent routes to the minimal exponent, cross-checked against
each other with exact rational arithmetic throughout: a closed-form degree
formula, Newton-polyhedron linear programming, and a simulated blow-up
resolution with its exceptional-divisor ledger.
"""

from minexp.exponent import (
    INFINITY,
    DegreeProfile,
    ExponentTable,
    Infinity,
    SingularityPredicates,
    WeightedProfile,
    exponent_candidates,
    lct_cone,
    minimal_exponent,
    minimal_exponent_cone,
    normalize_degree_one,
    singularity_predicates,
    weighted_upper_bound,
)
from minexp.newton import (
    DiagonalResult,
    MonomialSupport,
    diagonal_entry,
    newton_exponent,
    weighted_order_bound,
)
from minexp.poly import (
    Poly,
    PolyParseError,
    ProbeReport,
    ProbeWitness,
    cone_hypersurface,
    dehomogenized_hypersurface,
    is_homogeneous,
    parse_poly,
    probe_transversality,
    weighted_order,
)
from minexp.resolution import (
    ChartState,
    Coordinate,
    DescentChainReport,
    DivisorLedger,
    FactorizationWitness,
    GroupedDegrees,
    LedgerRow,
    ResolutionReport,
    ValuationScanReport,
    blowup_chart,
    descent_chain,
    ledger_lower_bound,
    simulate_resolution,
    verify_valuation_inequality,
)

__version__ = "0.1.0"
