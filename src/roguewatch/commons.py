"""Common-pool fishing environment: harvest rounds, free-form discussion,
doubling regrowth capped at the initial stock, and the survival and
efficiency metrics.

A round is: harvest (irreversible, checkpointed on the channel), then
discussion (reversible messages), then regrowth. Round-level rollback can
therefore remove discussion while never touching harvests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import CommunicationChannel, MessageKind
from .errors import NegativeRequestError


@dataclass(frozen=True)
class CommonsConfig:
    r0: float
    gamma: float = 5.0
    m: int = 12
    n_agents: int = 4

    @property
    def sustainable_total(self) -> float:
        """The harvest ceiling c = m * R0 / 2 used by the efficiency metric."""
        return self.m * self.r0 / 2.0


@dataclass
class RoundRecord:
    round_index: int
    stock_start: float
    harvests: dict[str, float]
    stock_after_harvest: float
    stock_after_regrow: Optional[float] = None

    def to_json_obj(self) -> dict:
        return {
            "round": self.round_index,
            "stock_start": self.stock_start,
            "harvests": self.harvests,
            "stock_after_harvest": self.stock_after_harvest,
            "stock_after_regrow": self.stock_after_regrow,
        }


@dataclass
class CommonsState:
    config: CommonsConfig
    stock: float = 0.0
    round_index: int = 1
    history: list[RoundRecord] = field(default_factory=list)
    channel: CommunicationChannel = field(default_factory=CommunicationChannel)

    @classmethod
    def fresh(cls, config: CommonsConfig) -> "CommonsState":
        return cls(config=config, stock=config.r0)

    @property
    def terminal(self) -> bool:
        return self.round_index > self.config.m


def harvest_phase(state: CommonsState, requests: dict[str, float], seed: int) -> None:
    """Process harvest requests in a seeded random agent order.

    Each request is clipped to the remaining stock, so the total harvested
    is order-invariant (only the attribution changes). Places a channel
    checkpoint: harvests are irreversible.
    """
    if state.terminal:
        raise ValueError("all rounds already played")
    for agent, amount in requests.items():
        if amount < 0:
            raise NegativeRequestError(f"{agent} requested {amount}")
    order = sorted(requests)
    random.Random(seed).shuffle(order)
    stock_start = state.stock
    taken: dict[str, float] = {}
    for agent in order:
        amount = min(requests[agent], state.stock)
        state.stock -= amount
        taken[agent] = amount
    state.history.append(
        RoundRecord(
            round_index=state.round_index,
            stock_start=stock_start,
            harvests={agent: taken[agent] for agent in sorted(taken)},
            stock_after_harvest=state.stock,
        )
    )
    summary = ", ".join(f"{agent} took {taken[agent]:g}" for agent in sorted(taken))
    text = (f"Round {state.round_index} harvest complete: {summary}. "
            f"Remaining fish: {state.stock:g}.")
    state.channel.append(MessageKind.SYSTEM, {"text": text}, irreversible=True)


def post_discussion(state: CommonsState, text: str) -> None:
    """Append one free-form discussion message (reversible); its text names its author."""
    state.channel.append(MessageKind.DISCUSSION, {"text": text})


def regrow(state: CommonsState) -> None:
    """Double the remaining stock up to the original maximum; advance the round."""
    if not state.history or state.history[-1].round_index != state.round_index:
        raise ValueError("regrow before this round's harvest")
    state.stock = min(2.0 * state.stock, state.config.r0)
    state.history[-1].stock_after_regrow = state.stock
    state.round_index += 1


@dataclass(frozen=True)
class CommonsMetrics:
    survival_time: int
    survival_rate: bool
    efficiency: float


def commons_metrics(history: Sequence[RoundRecord], config: CommonsConfig) -> CommonsMetrics:
    """Survival-Time, Survival-Rate, and Efficiency of a finished run.

    A round counts as survived when the post-harvest stock stays above
    gamma. Efficiency is 1 - max(0, c - total harvested) / c with
    c = m * R0 / 2, so exactly harvesting the sustainable optimum scores 1.
    """
    survival_time = sum(1 for r in history if r.stock_after_harvest > config.gamma)
    total = sum(sum(r.harvests.values()) for r in history)
    c = config.sustainable_total
    efficiency = 1.0 - max(0.0, c - total) / c
    return CommonsMetrics(
        survival_time=survival_time,
        survival_rate=survival_time >= config.m,
        efficiency=efficiency,
    )


class SustainableHarvester:
    """Scripted policy: take stock / (2n), keeping the stock pinned at R0."""

    def __init__(self, agent_id: str, n_agents: int) -> None:
        self.agent_id = agent_id
        self.n_agents = n_agents

    def request(self, stock: float) -> float:
        return stock / (2.0 * self.n_agents)

    def discussion_line(self, stock: float) -> str:
        return (
            f"{self.agent_id}: I will keep taking a sustainable share, "
            f"about {self.request(stock):g} fish."
        )


class GreedyHarvester:
    """Scripted policy: take stock / n, draining the pool immediately."""

    def __init__(self, agent_id: str, n_agents: int) -> None:
        self.agent_id = agent_id
        self.n_agents = n_agents

    def request(self, stock: float) -> float:
        return stock / self.n_agents

    def discussion_line(self, stock: float) -> str:
        return f"{self.agent_id}: I plan to take {self.request(stock):g} fish next."
