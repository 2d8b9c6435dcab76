"""Exact-arithmetic toolkit for quadratic embeddings of PG(n, q).

Finite fields with canonical moduli, projective geometry with reduced
bases, the degree-2 monomial (Veronese) map, the quadric-intersection
closure operator, arc and conic recognition, and a verifier plus
reconstructor for candidate quadratic embeddings, all over exact
integer arithmetic.
"""

from .arcs import (
    PlaneArc,
    SegreReport,
    is_arc,
    is_regular_conic,
    lemma_h6_set,
    segre_scan,
    tangent_meet,
    unisecants_at,
)
from .embeddings import (
    AffineExtension,
    EmbeddingReport,
    PointMap,
    Reconstruction,
    build_iota,
    build_Q_frame,
    default_complement,
    extend_beta,
    is_quadratic_embedding,
    is_regular,
    load_point_map,
    random_complement,
    reconstruct_kappa,
    recover_automorphism,
    save_point_map,
)
from .fields import (
    GaloisField,
    create_field,
    element_ops,
    field_from_descriptor,
    prime_power,
)
from .generate import (
    broken_map,
    frame_injection_map,
    generate_embedding,
    random_semilinear,
    space_for,
    veronese_kappa_map,
    veronese_point_map,
)
from .prng import SplitMix64
from .projective import (
    ProjectiveSpace,
    SemilinearMap,
    Subspace,
    standard_frame,
)
from .quadrics import (
    ClosedSet,
    QuadraticForm,
    closure_points,
    closure_points_by_forms,
    longest_closed_chain,
    quadratic_closure,
)
from .suites import BUDGETS, SUITE_ORDER, SuiteResult, run_suite
from .veronese import VeroneseMap, delta, veronese_for

__version__ = "0.1.0"
