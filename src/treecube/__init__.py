"""Tree cubes at desk scale: structure, roots, and deck reconstruction.

The library characterizes graphs isomorphic to the third power of a tree,
extracts cube roots (unique except for complete graphs), and runs the
deck-based recognition/weak-reconstruction pipeline, with exhaustive
verification sweeps over all free trees up to a configurable order.
"""

from .cubes import (
    RootKind,
    RootResult,
    clique_edges_of_tree,
    cliques_of_cube,
    cube_root,
    cube_root_oracle,
    is_tree_cube,
    maximal_cliques,
    tree_of_cliques,
)
from .deck import (
    Deck,
    ReconstructionReport,
    deck,
    deck_check,
    deck_to_text,
    parse_deck,
    recognize,
    reconstruct,
    select_cube_cards,
)
from .errors import (
    AmbiguousStructureError,
    DisconnectedError,
    EnumerationLimitError,
    GraphParseError,
    NotACubeError,
    NotATreeError,
    OrderTooSmallError,
    TreecubeError,
)
from .graphs import (
    CanonicalForm,
    LabeledGraph,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delete_vertex,
    delete_vertices,
    diameter,
    eccentricity,
    edge_span,
    is_complete,
    is_connected,
    is_isomorphic,
    isomorphism,
    parse_graph,
    path_graph,
    peripheral_vertices,
    power,
    relabel,
    serialize_graph,
    star_graph,
    to_edgelist,
    to_graph6,
)
from .harness import (
    CollisionPair,
    CollisionResult,
    VerificationReport,
    collide,
    noncube_corpus,
    run_suite,
)
from .trees import (
    Tree,
    ahu_code,
    end_deleted,
    enumerate_trees,
    is_tree,
    leaf_extensions,
    leaf_orders,
    leaves,
    max_enumeration_order,
)

__version__ = "0.1.0"
