"""Monitor triggers and the environment modifications they cause.

Triggers are evaluated after an agent's decision is produced but before it
is committed to the channel, so a triggering decision is itself discarded.
Every intervention respects irreversibility: nothing at or before a channel
checkpoint is ever undone, and the commons harvest log is append-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .commons import CommonsState
from .core import integer, number, one_of, section
from .errors import InvalidInterventionError
from .whodunit import WhodunitState


class InterventionKind(str, Enum):
    FULL_RESET = "full-reset"
    ROUND_RESET = "round-reset"
    RESAMPLE = "resample"
    NONE = "none"


@dataclass(frozen=True)
class InterventionPolicy:
    """``resample_temperature`` overrides the backend's sampling temperature
    on the re-invocation only; resampling a temperature-0 model without it
    is a deterministic no-op."""

    kind: InterventionKind = InterventionKind.NONE
    cap_per_role: int = 1
    resample_temperature: Optional[float] = None

    def __post_init__(self) -> None:
        integer("intervention.cap", self.cap_per_role, 0)
        if self.resample_temperature is not None:
            number("intervention.resample_temperature", self.resample_temperature, 0)
            if self.kind != InterventionKind.RESAMPLE:
                raise ValueError("intervention.resample_temperature: only kind 'resample' reads it")

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind.value, "cap": self.cap_per_role}
        if self.resample_temperature is not None:
            obj["resample_temperature"] = self.resample_temperature
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InterventionPolicy":
        section("intervention", obj, {"kind", "cap", "resample_temperature"}, ("kind", "cap"))
        kind = one_of("intervention.kind", obj["kind"], {k.value for k in InterventionKind})
        return cls(InterventionKind(kind), obj["cap"], obj.get("resample_temperature"))


@dataclass
class TriggerBudget:
    """Per-role trigger accounting; a role at its cap can no longer trigger."""

    cap_per_role: int
    used: dict[str, int] = field(default_factory=dict)


def evaluate_trigger(
    probability: float, tau: float, budget: TriggerBudget, role: str
) -> bool:
    """True iff the success estimate is strictly below tau and the role has
    budget left; consumes one unit of budget when true. The one gate for
    fitted and random monitors alike."""
    used = budget.used.get(role, 0)
    if probability < tau and used < budget.cap_per_role:
        budget.used[role] = used + 1
        return True
    return False


def full_reset(state: WhodunitState) -> None:
    """Restart the game in place: channel emptied, per-game turn counter
    back to 1. Only valid while no accusation has been committed (the
    cumulative dialog counter lives in the harness and keeps running)."""
    if state.terminal or state.channel.checkpoints:
        raise InvalidInterventionError("cannot fully reset after an accusation")
    state.channel.rollback_to_checkpoint()
    state.turn_index = 1
    state.next_index = 0


def round_reset(state: CommonsState) -> None:
    """Drop everything said since the last harvest; harvests stay."""
    state.channel.rollback_to_checkpoint()
