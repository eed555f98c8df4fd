"""Group-equivariant non-expansive operators on vertex- and edge-weighted
graphs, built from generalized permutants and permutant measures."""

from .experiments import transposition_permutant
from .geneo import (
    LinearOperator,
    PointwiseOperator,
    apply,
    compose_operators,
    convex_combination,
    decompose_to_measure,
    diagonal_scaling,
    from_measure,
    from_permutant,
    geneo_distance,
    pointwise_max,
    pointwise_min,
    verify_equivariance,
)
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    edge_automorphism_group,
    induced_edge_permutation,
    parse_graph,
    subgraph_isomorphism_classes,
    vertex_automorphism_group,
)
from .perception import (
    FunctionSpace,
    Measurement,
    PerceptionPair,
    aut_pseudodistance,
    constrained_space,
    explicit_space,
    full_space,
    measurement,
    point_pseudodistance,
    sup_distance,
    verify_perception_pair,
)
from .perm import (
    FiniteGroup,
    Homomorphism,
    Permutation,
    compose,
    format_cycles,
    generate_group,
    inverse,
    parse_cycles,
)
from .permutant import (
    ActionContext,
    GeneralizedPermutant,
    Mapping,
    NotAlphaClosedError,
    PermutantMeasure,
    all_orbits,
    alpha_action,
    endo_context,
    is_generalized_permutant,
    is_permutant_measure,
    orbit,
)

__version__ = "0.1.0"
