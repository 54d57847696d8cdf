"""Self-similar groups on the rooted ternary tree, with a verification
harness for the stabilizer structure of the Hanoi towers group."""

from .analysis import (
    KernelReport,
    LemmaReport,
    LEMMA_IDS,
    TruncatedQuotient,
    build_quotient,
    h_subspace,
    kernel_report,
    q_order,
    rist_image,
    verify_lemma,
)
from .automorphism import (
    Portrait,
    apply,
    compose,
    embed,
    identity,
    inverse,
    leaf_permutation,
    state_at,
)
from .f2 import F2Subspace, intersect, span, stab1_vector, sum_spaces
from .game import apply_move, consistency_check, solve
from .perm import Perm
from .permgroup import (
    PermGroup,
    derived_subgroup,
    is_elementary_abelian,
    normal_closure,
)
from .words import (
    RELATORS,
    check_relator,
    commutator,
    conjugate,
    evaluate,
    parity_vector,
    schreier_stab1_generators,
    tau,
    word_states,
)

__version__ = "0.1.0"

__all__ = [
    "F2Subspace",
    "KernelReport",
    "LEMMA_IDS",
    "LemmaReport",
    "Perm",
    "PermGroup",
    "Portrait",
    "RELATORS",
    "TruncatedQuotient",
    "apply",
    "apply_move",
    "build_quotient",
    "check_relator",
    "commutator",
    "compose",
    "conjugate",
    "consistency_check",
    "derived_subgroup",
    "embed",
    "evaluate",
    "h_subspace",
    "identity",
    "intersect",
    "inverse",
    "is_elementary_abelian",
    "kernel_report",
    "leaf_permutation",
    "normal_closure",
    "parity_vector",
    "q_order",
    "rist_image",
    "schreier_stab1_generators",
    "solve",
    "span",
    "stab1_vector",
    "state_at",
    "sum_spaces",
    "tau",
    "verify_lemma",
    "word_states",
]
