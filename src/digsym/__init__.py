"""digsym: digraph symmetry toolkit.

Digraph and permutation-group primitives, transitivity testers, Cayley and
quotient constructions, and a verification harness that sweeps statement
checks over exhaustive small catalogs.
"""

from .digraph import DIRECTED, MIXED, S_ARC, S_GEODESIC, UNDIRECTED, Digraph, build
from .groups import GroupTable, PermGroup
from .perm import Permutation, format_cycles, parse_cycles
from .symmetry import (
    TransitivityReport,
    automorphism_group,
    is_distance_transitive,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    is_vertex_transitive,
    transitivity_report,
)
from .construct import (
    CayleySpec,
    QuotientResult,
    abelian_table,
    cayley_digraph,
    cayley_holomorph_action,
    cayley_spec,
    circuit,
    complete,
    cyclic_table,
    dihedral_table,
    is_normal_cayley,
    paley_tournament,
    quotient_digraph,
)
from .verify import CheckResult, SurveyConfig, default_config, run_survey

__all__ = [
    "DIRECTED",
    "MIXED",
    "S_ARC",
    "S_GEODESIC",
    "UNDIRECTED",
    "CayleySpec",
    "CheckResult",
    "Digraph",
    "GroupTable",
    "PermGroup",
    "Permutation",
    "QuotientResult",
    "SurveyConfig",
    "TransitivityReport",
    "abelian_table",
    "automorphism_group",
    "build",
    "cayley_digraph",
    "cayley_holomorph_action",
    "cayley_spec",
    "circuit",
    "complete",
    "cyclic_table",
    "default_config",
    "dihedral_table",
    "format_cycles",
    "is_distance_transitive",
    "is_normal_cayley",
    "is_s_arc_transitive",
    "is_s_geodesic_transitive",
    "is_vertex_transitive",
    "parse_cycles",
    "paley_tournament",
    "quotient_digraph",
    "run_survey",
    "transitivity_report",
]
