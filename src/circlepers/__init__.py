"""circlepers: persistence diagrams and exact distances for interval modules
on the line and on the circle.

Modules are given as finite multisets of intervals.  The package computes
their persistence diagrams, exact bottleneck distances on the plane and on
the plane modulo diagonal integer shifts, interleaving distances, and an
independent brute-force interleaving search on discretised grid modules that
cross-checks the diagram route.
"""

from .grid import GridModule, step_composite, to_grid
from .intervals import (
    CLOSED,
    OPEN,
    CircleInterval,
    CircleModule,
    EndpointKind,
    LineInterval,
    LineModule,
    diagram_of,
    diagram_of_line,
    translate_basis,
)
from .interleaving import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    FeasibilityResult,
    GridMorphism,
    bruteforce_distance,
    feasible_interleaving,
    interleaving_distance_circle,
    interval_distance_line,
    is_degree_morphism,
    is_interleaving_pair,
)
from .io import ParseError
from .matching_transfer import (
    InvariantMatching,
    OrbitPair,
    invariant_cost,
    lift_matching,
    project_matching,
)
from .metric_plane import (
    BottleneckResult,
    Diagram,
    PartialMatching,
    PlanePoint,
    bottleneck_plane,
    diag_cost,
    linf,
    matching_cost,
)
from .metric_quotient import (
    QuotientDiagram,
    QuotientPoint,
    bottleneck_quotient,
    matching_cost_quotient,
    quotient_linf,
)
from .rationals import INF, NEG_INF, Ext, format_number, format_ratio, parse_number

__version__ = "0.1.0"

__all__ = [
    "BottleneckResult",
    "BudgetExceeded",
    "CircleInterval",
    "CircleModule",
    "CLOSED",
    "DEFAULT_BUDGET",
    "Diagram",
    "EndpointKind",
    "Ext",
    "FeasibilityResult",
    "GridModule",
    "GridMorphism",
    "INF",
    "InvariantMatching",
    "LineInterval",
    "LineModule",
    "NEG_INF",
    "OPEN",
    "OrbitPair",
    "ParseError",
    "PartialMatching",
    "PlanePoint",
    "QuotientDiagram",
    "QuotientPoint",
    "bottleneck_plane",
    "bottleneck_quotient",
    "bruteforce_distance",
    "diag_cost",
    "diagram_of",
    "diagram_of_line",
    "feasible_interleaving",
    "format_number",
    "format_ratio",
    "interleaving_distance_circle",
    "interval_distance_line",
    "invariant_cost",
    "is_degree_morphism",
    "is_interleaving_pair",
    "lift_matching",
    "linf",
    "matching_cost",
    "matching_cost_quotient",
    "parse_number",
    "project_matching",
    "quotient_linf",
    "step_composite",
    "to_grid",
    "translate_basis",
]
