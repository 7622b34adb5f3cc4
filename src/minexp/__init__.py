"""Exact singularity invariants of cones over complete intersections.

Three independent routes to the minimal exponent, cross-checked against
each other with exact rational arithmetic throughout: a closed-form degree
formula, Newton-polyhedron linear programming, and a simulated blow-up
resolution with its exceptional-divisor ledger, one record per divisor.
"""

from minexp.exponent import DegreeProfile, cone_formula, weighted_upper_bound
from minexp.newton import MonomialSupport, diagonal_entry, newton_diagonal
from minexp.poly import parse_poly, weighted_profile
from minexp.resolution import simulate_resolution

__version__ = "0.1.0"
