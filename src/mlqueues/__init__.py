"""Multiline queues on the ring: projections, twists, and exact ring processes."""

from .errors import ChainError, SchemaError, ShapeError
from .mlq import (
    BosonicMLQ,
    FermionicMLQ,
    apply_twists,
    count_queues,
    enumerate_queues,
    straighten,
    twist,
)
from .markov import (
    ChainSpec,
    RateParams,
    RationalDistribution,
    conjugate,
    count_states,
    enumerate_states,
    ktazrp_chain,
    ktazrp_transitions,
    mlq_chain,
    ring_forward,
    ring_forward_bosonic,
    ring_reverse,
    ring_reverse_bosonic,
    simulate_ctmc,
    stationary_exact,
    tasep_chain,
    tasep_transitions,
    tazrp_chain,
    tazrp_transitions,
)
from .pairing import PairingResult, pair_strictly_left, pair_weakly_right
from .projection import (
    apply_row_bosonic,
    apply_row_fermionic,
    apply_row_particlewise,
    check_r_expansion,
    ctm_components,
    ctm_project,
    ferrari_martin,
    label_trace,
    project,
)
from .words import (
    BosonicWord,
    FermionicWord,
    indicator_multiset,
    indicator_subset,
    multiset_indicator,
    subset_indicator,
)

__version__ = "0.1.0"
