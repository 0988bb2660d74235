"""Multiline queues on the ring: projections, twists, and exact ring processes.

The names below are resolved on first access (PEP 562): ``import mlqueues``
loads no submodule, and ``mlqueues.project`` loads only what ``projection``
imports.
"""

import importlib

# name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("ChainError", "ShapeError"),
        "mlq": ("BosonicMLQ", "FermionicMLQ", "apply_twists", "count_queues", "enumerate_queues",
                "straighten", "twist"),
        "markov": ("MODELS", "ChainSpec", "RationalDistribution", "certify_stationary", "conjugate", "count_states",
                   "enumerate_states", "ktazrp_transitions", "mlq_chain", "model_chain", "ring", "simulate_ctmc",
                   "stationary_exact", "tasep_transitions", "tazrp_transitions"),
        "pairing": ("PairingResult", "pair_strictly_left", "pair_weakly_right"),
        "projection": ("apply_row_bosonic", "apply_row_fermionic", "apply_row_particlewise", "check_r_expansion",
                       "ctm_components", "ctm_project", "ferrari_martin", "label_trace", "project"),
        "words": ("BosonicWord", "FermionicWord", "indicator_multiset", "multiset_indicator"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
