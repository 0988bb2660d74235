"""Multiline queues on the ring: projections, twists, and exact ring processes."""

from .errors import ChainError, ShapeError
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
    MODELS,
    ChainSpec,
    RateParams,
    RationalDistribution,
    certify_stationary,
    conjugate,
    count_states,
    enumerate_states,
    ktazrp_transitions,
    mlq_chain,
    model_chain,
    ring,
    simulate_ctmc,
    stationary_exact,
    tasep_transitions,
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
    multiset_indicator,
)

__version__ = "0.1.0"
