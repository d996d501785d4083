"""Automatic (synchronous) relations on finite words.

Multi-track automata with padding, relations and recognizable separators,
the separability/colorability reductions, decidable definability in the
bounded recognizable hierarchies, and Turing-machine instance generators.
"""

from .automata import (
    PAD,
    ArityMismatchError,
    AutomataError,
    BudgetExceededError,
    FormatError,
    MultiTrackAutomaton,
    UnknownSymbolError,
    complement_relative,
    convolve,
    determinize_minimize,
    emptiness_shortest,
    equivalent,
    membership,
    permute_tracks,
    project,
    split_convolution,
    state_budget,
    valid_pad_automaton,
)
from .coloring import (
    InvalidColoringError,
    RegularColoring,
    bounded_color_search,
    coloring_from_separator,
    definability_to_separability,
    graph_equal,
    incompatibility_graph,
    reduce_coloring_to_sep,
    reduce_sep_to_coloring,
    separator_from_coloring,
    verify_coloring,
)
from .definability import (
    EquivalenceDecomposition,
    QuotientMatrix,
    build_equiv,
    decompose,
    kprod_definability,
    krec_definability,
    min_prod,
    recognizable as is_recognizable,  # ``recognizable`` names the submodule
)
from .recognizable import (
    PartitionedRecognizable,
    RecognizableRelation,
    lift_to_kprod,
    normalize_symmetric_separator,
    one_prod_separability,
    to_automatic,
    verify_separator,
)
from .relations import (
    AutomaticRelation,
    append_one_relation,
    compose,
    co_functional,
    equal_length_relation,
    fixtures,
    functional,
    image,
    init_set,
    inverse,
    make_identity,
    preimage,
    relation,
    successor_relation,
    symmetric_closure,
    tree_relation,
)
from .tm import (
    TuringMachine,
    config_graph,
    pad_transform,
    reach_bfs,
    coloring_gadget,
    wf_checks,
)

__all__ = [n for n in dir() if not n.startswith("_")]
