"""Exact certification that small graphs have no quantum symmetry.

For graphs that are regular with no common neighbors across edges and
exactly one across non-edges, of degree at most 3, the package produces
a machine-checkable certificate that the quantum automorphism algebra
is commutative, and independently verifies such certificates.
"""

from .algebra import (
    COL,
    ROW,
    Gen,
    Poly,
    PolyParseError,
    Word,
    commutator,
    evaluate_perm,
    expand_unity,
    format_poly,
    gen,
    monomial,
    parse_poly,
    relabel,
    star,
    u,
    word,
)
from .autgroup import (
    AutGroup,
    Permutation,
    automorphism_group,
    induced_two_subset_map,
    is_automorphism,
    verify_s5_action,
)
from .certificate import (
    CERT_VERSION,
    COMMUTES,
    FULL,
    QA5,
    ZERO_PRODUCT,
    Certificate,
    Conclusion,
    ExpandUnity,
    LemmaCom,
    LocalReduce,
    MalformedCertificate,
    ProofStep,
    Substitution,
    Swap,
    Transport,
    certificate_from_dict,
    certificate_to_dict,
    claim_quadruple,
    dumps_certificate,
    graph_digest,
    load_certificate,
    loads_certificate,
    save_certificate,
)
from .graphs import (
    Graph,
    GraphFormatError,
    MooreReport,
    SrgParams,
    check_moore_conditions,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty,
    format_graph_text,
    from_edge_list,
    kneser,
    kneser_vertices,
    parse_graph_text,
    petersen,
    srg_params,
)
from .prover import (
    ConditionsNotMet,
    ProofBuilder,
    SanityReport,
    UnsupportedDegree,
    derive_qa5,
    prove_no_quantum_symmetry,
    sanity_eval,
)
from .relations import local_reduce, swap_pair
from .verifier import DigestMismatch, VerificationReport, verify_certificate

__version__ = "0.1.0"
