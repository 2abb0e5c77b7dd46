"""raagscope: certified surface-subgroup classification for graph groups."""

from .graphs import (
    Graph,
    GraphError,
    canonical_key,
    emit_graph,
    find_induced,
    is_isomorphic,
    new_graph,
    parse_graph,
    standard_graph,
)
from .obstructions import (
    CatalogError,
    ForbiddenEntry,
    Obstruction,
    builtin_catalog,
    find_cocontraction_witness,
    find_forbidden_induced,
    load_catalog,
    verify_obstruction,
)
from .prover import (
    Derivation,
    SoundnessError,
    Verdict,
    check_derivation,
    classify,
    is_chordal,
    is_chordal_bipartite,
    prove_in_f,
)
from .recognize import CycleWitness, find_induced_cycle
from .words import (
    SurfacePresentation,
    WordError,
    are_equal,
    check_hom,
    conjugate_into_clique,
    cyclic_normal_form,
    is_relative_hom,
    is_trivial,
    kernel_search,
    normal_form,
    parse_word,
    power_product_nontrivial,
)

__version__ = "0.1.0"
