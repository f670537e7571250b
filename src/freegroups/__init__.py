"""Computational toolkit for finitely generated free groups.

Reduced word arithmetic, Whitehead graphs and their cut vertices, the two
kinds of Whitehead automorphisms, primitivity testing by cyclic length
minimization, subgroup graphs by folding, and batch verification sweeps
with a command line front end (``python -m freegroups`` or the
``freegroups`` script).
"""

from types import ModuleType as _Module

from .automorphisms import (
    MultiplierAut,
    PermutationAut,
    apply_aut,
    enumerate_kind1,
    enumerate_kind2,
    kind2_count,
)
from .primitivity import (
    MinimizationTrace,
    is_basis_pair_f2,
    is_primitive,
    primitive_orbit_oracle,
    whitehead_minimize,
)
from .stallings import SubgroupGraph, build_subgroup_graph
from .verify import (
    CLAIM_IDS,
    VerificationReport,
    build_w,
    primitive_density,
    run_claims,
    select_wij,
    verify_claim_one,
    verify_claim_two,
    verify_fact1,
    verify_fincov,
    verify_lemma38,
    verify_nielsen_xcheck,
    verify_npbig,
    verify_prop24,
    verify_section3,
    wij_family,
)
from .whitehead_graph import (
    CutVertexVerdict,
    WhiteheadGraph,
    build_whitehead_graph,
    whitehead_edges,
)
from .words import (
    CyclicWord,
    Word,
    WordParseError,
    are_conjugate,
    canonical_rotation,
    commutator,
    count_reduced_words,
    cyclically_reduce,
    format_word,
    iter_reduced_words,
    letter_key,
    letter_name,
    letter_order,
    parse_word,
    word_sort_key,
)

__version__ = "0.1.0"

# the public names imported above; the submodules are attributes too, not exports
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
)
