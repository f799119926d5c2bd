"""Disjointness graphs of planar point sets: exact-integer geometry for
double-chain and convex configurations, closed-form chromatic values, a
constructive coloring, an exact branch-and-bound chromatic solver, and the
experiments that hold the solver against the closed forms."""

from .coloring import (
    Coloring,
    VerifyReport,
    coloring_from_json,
    coloring_to_json,
    load_coloring,
    verify_coloring,
    verify_report_to_json,
)
from .disjointness import (
    DisjointnessGraph,
    all_segments,
    build_graph,
    export_graph,
    graph_to_json,
)
from .experiments import (
    ScanReport,
    SweepRow,
    conjecture_scan,
    construct_double_chain_coloring,
    convex_sweep,
    double_chain_sweep,
    sample_general_position,
    singleton_class_check,
)
from .formulas import double_chain_chi, f_of, formula_table, g_of
from .geometry import (
    Partition,
    PointSet,
    find_collinear_triple,
    gen_convex,
    gen_double_chain,
    load_points,
    pointset_from_json,
    pointset_to_json,
    save_points,
    validate_double_chain,
)
from .solver import (
    ChiResult,
    chromatic_number_exact,
    clique_lower,
    dsatur_upper,
)

__version__ = "0.1.0"
