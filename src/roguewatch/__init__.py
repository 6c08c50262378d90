"""Cooperative multi-agent games with uncertainty-based failure monitors
and rollback interventions.

The package is organized around a detect-and-intervene loop: environments
(whodunit, commons) produce per-turn agent decisions; uncertainty features
of those decisions feed per-role success monitors; monitors below their
threshold trigger interventions that roll the environment back without
ever undoing irreversible actions.
"""

from .core import (
    CommunicationChannel,
    GameSpec,
    MessageKind,
    Outcome,
    Trajectory,
    TurnRecord,
    Variant,
    derive_seed,
    generate_game,
)
from .intervention import InterventionKind, InterventionPolicy, TriggerBudget
from .monitor import MonitorModel, NormalSystem, RandomMonitor, fit_monitor, grid_search
from .uncertainty import FeatureVector, entropy, extract_features, kurtosis, varentropy

__version__ = "0.1.0"

__all__ = [
    "CommunicationChannel",
    "FeatureVector",
    "GameSpec",
    "InterventionKind",
    "InterventionPolicy",
    "MessageKind",
    "MonitorModel",
    "NormalSystem",
    "Outcome",
    "RandomMonitor",
    "Trajectory",
    "TriggerBudget",
    "TurnRecord",
    "Variant",
    "derive_seed",
    "entropy",
    "extract_features",
    "fit_monitor",
    "generate_game",
    "grid_search",
    "kurtosis",
    "varentropy",
]
