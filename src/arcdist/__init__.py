"""arcdist: a combinatorial engine for arcs joining two marked points on a surface.

Vertices of the arc complex are canonical reduced crossing words over an
ideal triangulation; the package computes minimal intersection numbers by
two independent algorithms, builds certified paths in the arc complex by
surgery, classifies arc distances 0/1/2 exactly, and converts distance
certificates into n-level knot positions.
"""

from .errors import (
    ArcdistError,
    BaseMismatch,
    InconsistentWord,
    InvalidSequence,
    InvalidTriangulation,
    PreconditionError,
    SchemaError,
    UnflippableEdge,
    VerificationError,
)
from .surface import (
    P1,
    P2,
    Corner,
    Triangulation,
    build_standard_triangulation,
)
from .arc import (
    ArcWord,
    edge_word,
    enumerate_arcs,
    random_arc,
    straighten_to_edge,
    tighten,
    transport,
    transport_inverse,
)
from .realization import intersection, intersection_via_flips, self_intersection
from .surgery import SurgeryTrace, path_between, surgery_step
from .distance import (
    DistanceCertificate,
    ShadowPairInput,
    Verdict,
    bounded_search,
    classify,
    pair_set_distance,
    verify_certificate,
)
from .leveling import (
    ArcSequence,
    LevelPosition,
    arcs_to_leveling,
    level_number_report,
    leveling_to_arc_sequence,
    sequence_to_level_certificate,
    validate_sequence,
)

__version__ = "0.1.0"
