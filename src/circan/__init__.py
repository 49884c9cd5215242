"""circan: circulant graph analysis and closed-form verification.

The library constructs circulant graphs and their complements, computes
their distance structure, spectra, routings, forwarding indices, and
seventeen distance-based topological indices, and verifies closed-form
family formulas against independent brute-force computation.
"""

from .core import (
    CirculantSpec,
    GenericGraph,
    build_circulant,
    complement_graph,
    complement_spec,
    parse_graph_fixture,
)
from .errors import (
    CirculantError,
    DegenerateReciprocalTransmissionError,
    DegenerateTransmissionError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyComplementError,
    EmptyJumpSetError,
    FamilyDomainError,
    FixtureParseError,
    InconsistentPredictionError,
    InvalidEdgeError,
    InvariantError,
    KnownExceptionError,
    MissingPairError,
    NonElementaryPathError,
    OutOfDomainError,
    OversizedRationalError,
    VertexRangeError,
)
from .families import (
    DomainStatus,
    Family,
    FamilyPoint,
    Prediction,
    base_spec,
    c7_point,
    c7_points,
    domain_status,
    double_loop_gen_point,
    double_loop_gen_points,
    double_loop_half_point,
    double_loop_half_points,
    multiplicative_base_diameter,
    multiplicative_point,
    multiplicative_points,
    predict,
    predicted_distance_vector,
)
from .indices import (
    INDEX_FIELDS,
    IndexReport,
    full_report,
    report_from_distance_vector,
)
from .metrics import (
    DistanceVector,
    MetricsSummary,
    bfs_layering_fault,
    distance_counts,
    distance_vector,
    metrics_summary,
)
from .routing import (
    LoadProfile,
    Routing,
    edge_forwarding_bounds,
    load_profile,
    parse_routing_fixture,
    vertex_forwarding_index,
)
from .spectral import (
    circulant_spectrum,
    spectral_radii,
)
from .verifier import (
    VerificationRecord,
    has_failures,
    records_to_csv,
    records_to_json,
    verify_family,
    verify_point,
    verify_sweep,
)

__version__ = "0.1.0"
