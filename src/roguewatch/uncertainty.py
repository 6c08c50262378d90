"""Uncertainty statistics over probability vectors and per-turn features.

Entropy is -sum(p * ln p) in nats, varentropy the variance of the surprisal
-ln p under p, and kurtosis the normalized fourth moment of the surprisal:
sum(p * (-ln p - H)^4) / varentropy^2. A turn's feature vector takes the
maximum of each statistic over the turn's annotated positions, plus the
turn count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateDistributionError, InvalidDistributionError

SUM_TOLERANCE = 1e-9
# Exactly-uniform vectors accumulate ~1e-31 of float noise in the surprisal
# deviations; anything below this is treated as a zero varentropy.
DEGENERATE_VARENTROPY = 1e-24

KURTOSIS_FALLBACK = 0.0


def _statistics(p: Sequence[float]) -> tuple[float, float, Optional[float]]:
    """Check ``p`` and return its entropy, varentropy and kurtosis, the
    kurtosis being None where the varentropy is degenerate. One pass checks
    each entry and takes the log of each positive one. The public
    statistics and the feature pooling all compute through here."""
    if len(p) == 0:
        raise InvalidDistributionError("empty probability vector")
    log = math.log
    terms = []  # (x, ln x) of each positive entry
    for x in p:
        if x > 0.0:
            terms.append((x, log(x)))
        elif x != 0.0:
            raise InvalidDistributionError(f"probability entry {x!r} is negative or NaN")
    total = math.fsum(p)
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    h = -math.fsum([x * lx for x, lx in terms])
    deviations = [(x, -lx - h) for x, lx in terms]
    var = math.fsum([x * d ** 2 for x, d in deviations])
    if var < DEGENERATE_VARENTROPY:
        return h, var, None
    fourth = math.fsum([x * d ** 4 for x, d in deviations])
    return h, var, fourth / (var * var)


def entropy(p: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 * ln 0 = 0."""
    return _statistics(p)[0]


def varentropy(p: Sequence[float]) -> float:
    """Variance of the surprisal -ln p under p. Always non-negative."""
    return _statistics(p)[1]


def kurtosis(p: Sequence[float]) -> float:
    """Normalized fourth moment of the surprisal.

    Raises DegenerateDistributionError when the varentropy is zero (all
    surprisals equal, e.g. a one-hot or uniform vector); feature pooling
    substitutes KURTOSIS_FALLBACK.
    """
    value = _statistics(p)[2]
    if value is None:
        raise DegenerateDistributionError("zero varentropy")
    return value


@dataclass(frozen=True)
class FeatureVector:
    """Per-turn monitor input: position-wise maxima plus the turn count."""

    max_entropy: float
    max_varentropy: float
    max_kurtosis: float
    turn_index: int

    def __post_init__(self) -> None:
        for value in (self.max_entropy, self.max_varentropy, self.max_kurtosis):
            if not math.isfinite(value):
                raise ValueError("feature statistics must be finite")

    def to_json_obj(self) -> dict:
        return {
            "entropy": self.max_entropy,
            "varentropy": self.max_varentropy,
            "kurtosis": self.max_kurtosis,
            "turn": self.turn_index,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FeatureVector":
        return cls(
            max_entropy=obj["entropy"],
            max_varentropy=obj["varentropy"],
            max_kurtosis=obj["kurtosis"],
            turn_index=obj["turn"],
        )


def extract_features(
    positions: Sequence[Sequence[float]], turn_index: int
) -> Optional[FeatureVector]:
    """Pool a turn's annotated positions into a FeatureVector.

    Returns None on a no-signal turn (no annotated positions). Degenerate
    positions contribute KURTOSIS_FALLBACK.
    """
    if not positions:
        return None
    entropies = []
    varentropies = []
    kurtoses = []
    for p in positions:
        h, var, kurt = _statistics(p)
        entropies.append(h)
        varentropies.append(var)
        kurtoses.append(KURTOSIS_FALLBACK if kurt is None else kurt)
    return FeatureVector(
        max_entropy=max(entropies),
        max_varentropy=max(varentropies),
        max_kurtosis=max(kurtoses),
        turn_index=turn_index,
    )
