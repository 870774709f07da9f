"""Dimer models on the two-torus: tilings, dual quivers, matchings,
stability, and the toric charts of their moduli spaces.

The package follows one pipeline: a bipartite tiling of the torus is
validated and traced into faces; its dual quiver carries one arrow per
edge and one relation per arrow; perfect matchings give height changes, a
characteristic polynomial, and its Newton polygon; generic stability
weights single out torus-fixed representations, whose fundamental domains
classify the local charts; the chart cones assemble into a fan that is
checked against the polygon as a certificate of crepant resolution.
"""

from .catalog import example, example_names
from .charts import (
    CASE_SIX_OPPOSITE,
    Chart,
    ChartClassification,
    ChartCone,
    FanResult,
    FixedPointCandidate,
    FundamentalDomain,
    assemble_fan,
    chart_characters,
    chart_cone,
    chart_rows,
    classify_chart,
    enumerate_fixed_candidates,
    fundamental_domain,
    verify_crepant,
)
from .exceptions import (
    CapacityError,
    DegenerateModelError,
    InternalConsistencyError,
    InvalidModelError,
)
from .heights import (
    LatticePolygon,
    LaurentPoly2,
    area2,
    char_poly,
    contains_point,
    convex_hull,
    height_change,
    laurent_from_counts,
    newton_polygon,
)
from .lattice import (
    Cone3,
    CocharLattice,
    Splitting,
    cochar_lattice,
    cone_over_polygon,
    dual_cone,
    express_functional,
    hilbert_basis,
    pm_cocharacter,
    split_by_reference,
)
from .matchings import (
    MATCHING_CAP,
    NON_DEGENERACY_METHODS,
    SUBSET_CAP,
    BipartiteGraph,
    enumerate_matchings,
    from_model,
    has_matching_containing,
    has_perfect_matching,
    is_non_degenerate,
    perfect_matchings,
    r_charge_average,
)
from .model import (
    BLACK,
    WHITE,
    CoverFragment,
    DimerEdge,
    DimerModel,
    DimerVertex,
    Face,
    FaceTrace,
    ValidationCheck,
    ValidationReport,
    dump_model,
    face_gluing_shifts,
    lift_patch,
    load_model,
    model_from_dict,
    model_to_dict,
    trace_faces,
    validate_model,
)
from .quiver import (
    Arrow,
    PathSeq,
    Quiver,
    RelationPair,
    check_support,
    p_minus,
    p_plus,
    quiver_of,
    relations,
)
from .render import render_domain, render_model, render_polygon
from .stability import (
    VERTEX_CAP,
    Theta,
    draw_xi,
    is_generic,
    is_semistable,
    is_stable,
    make_theta,
    sample_generic_theta,
    sardo_infirri_theta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
