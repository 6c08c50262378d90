"""Both WhoDunit variants: legal-action validation, message rendering,
knowledge distribution, termination, and the game metrics.

The rendered message templates are a wire format: scripted agents parse
them back rather than peeking at engine internals, so the exact strings
below are load-bearing and covered by tests.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CommunicationChannel,
    GameSpec,
    Message,
    MessageKind,
    Outcome,
    Variant,
)
from .errors import IllegalActionError, InfeasibleRequestError

ROLE_ACCUSER = "accuser"
ROLE_INTEL = "intel"
ROLE_PLAYER = "player"

DEFAULT_ACCUSER_NAME = "Beth"
DEFAULT_INTEL_NAME = "Alex"
DEFAULT_PLAYER_NAMES = ("Alex", "Beth", "Carol", "Dave", "Erin", "Fred", "Gina", "Hugo")

TPL_REQUEST_SPECIFIC = "Agent {name} has requested information: is property {prop} of character {target} {value}?"
TPL_REQUEST_BROAD = "Agent {name} has asked for general information (a broad message)"
TPL_RESPOND_YES = "Agent {name} has responded that character {target} is {value}"
TPL_RESPOND_NO = "Agent {name} has responded that character {target} is not {value}"
TPL_RESPOND_BROAD = "Agent {name} has decided to return a broad message: For characters {ids}, the property {prop} is {value}"
TPL_SHARE = "Player {name} has decided to share a fact about the Winner: {fact}."
TPL_ACCUSE = "The winner is {target}."
TPL_SKIP = "Player {name} has decided to skip their turn."


def render_fact(prop: str, value: str) -> str:
    return f"their {prop} is {value}"


@dataclass(frozen=True)
class AsymAction:
    """Asymmetric-variant action. ``prime`` is one of request-specific,
    request-broad, accuse (Accuser) or respond, respond-broad (Intel)."""

    prime: MessageKind
    target: Optional[int] = None
    prop: Optional[str] = None
    value: Optional[str] = None
    truth: Optional[bool] = None
    broad_list: Optional[tuple[int, ...]] = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.prime.value}
        if self.target is not None:
            obj["target"] = self.target
        if self.prop is not None:
            obj["property"] = self.prop
        if self.value is not None:
            obj["value"] = self.value
        if self.truth is not None:
            obj["truth"] = self.truth
        if self.broad_list is not None:
            obj["characters"] = list(self.broad_list)
        return obj


@dataclass(frozen=True)
class SymAction:
    """Symmetric-variant action: share a fact, accuse, or skip.

    ``fact`` overrides the indexed knowledge fact when present, which lets
    synthetic rogues share false content; the environment renders whatever
    the agent claims and never verifies truthfulness.
    """

    prime: MessageKind
    fact_index: Optional[int] = None
    fact: Optional[tuple[str, str]] = None
    target: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.prime.value}
        if self.fact_index is not None:
            obj["fact_index"] = self.fact_index
        if self.fact is not None:
            obj["fact"] = list(self.fact)
        if self.target is not None:
            obj["target"] = self.target
        return obj


@dataclass(frozen=True)
class KnowledgeSet:
    role: str
    culprit_facts: tuple[tuple[str, str], ...] = ()
    suspect_table: Optional[tuple] = None


@dataclass
class WhodunitState:
    spec: GameSpec
    channel: CommunicationChannel
    knowledge: dict[str, KnowledgeSet]
    order: list[str]
    next_index: int = 0
    turn_index: int = 1
    outcome: Optional[Outcome] = None
    accused_id: Optional[int] = None

    @property
    def next_agent(self) -> str:
        return self.order[self.next_index]

    @property
    def terminal(self) -> bool:
        return self.outcome is not None

    def role_of(self, agent_id: str) -> str:
        return self.knowledge[agent_id].role


def build_asymmetric_knowledge(
    spec: GameSpec,
    accuser: str = DEFAULT_ACCUSER_NAME,
    intel: str = DEFAULT_INTEL_NAME,
) -> dict[str, KnowledgeSet]:
    return {
        accuser: KnowledgeSet(
            role=ROLE_ACCUSER, culprit_facts=spec.culprit.assignment
        ),
        intel: KnowledgeSet(role=ROLE_INTEL, suspect_table=spec.suspects),
    }


def deal_symmetric_facts(
    spec: GameSpec,
    n_agents: int,
    facts_per_agent: int,
    seed: int,
    agent_ids: Optional[Sequence[str]] = None,
) -> dict[str, KnowledgeSet]:
    """Deal disjoint true culprit facts, ``facts_per_agent`` to each agent."""
    names = spec.schema.names
    if n_agents * facts_per_agent > len(names):
        raise InfeasibleRequestError(
            f"{n_agents} x {facts_per_agent} facts exceed {len(names)} attributes"
        )
    if agent_ids is None:
        agent_ids = default_player_names(n_agents)
    rng = random.Random(seed)
    dealt = rng.sample(list(names), n_agents * facts_per_agent)
    culprit_values = spec.culprit.as_dict()
    knowledge: dict[str, KnowledgeSet] = {}
    for i, agent in enumerate(agent_ids):
        chunk = dealt[i * facts_per_agent : (i + 1) * facts_per_agent]
        knowledge[agent] = KnowledgeSet(
            role=ROLE_PLAYER,
            culprit_facts=tuple((name, culprit_values[name]) for name in chunk),
            suspect_table=spec.suspects,
        )
    return knowledge


def default_player_names(n_agents: int) -> list[str]:
    names = list(DEFAULT_PLAYER_NAMES[:n_agents])
    while len(names) < n_agents:
        names.append(f"Player{len(names) + 1}")
    return names


def new_game(
    spec: GameSpec,
    n_agents: int = 4,
    facts_per_agent: int = 3,
    deal_seed: int = 0,
) -> WhodunitState:
    """Fresh state for a spec: knowledge dealt, accuser (or first player) to act."""
    if spec.variant is Variant.ASYMMETRIC:
        knowledge = build_asymmetric_knowledge(spec)
        order = [DEFAULT_ACCUSER_NAME, DEFAULT_INTEL_NAME]
    else:
        knowledge = deal_symmetric_facts(spec, n_agents, facts_per_agent, deal_seed)
        order = list(knowledge)
    return WhodunitState(
        spec=spec, channel=CommunicationChannel(), knowledge=knowledge, order=order
    )


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise IllegalActionError(reason)


def _pending_specific_request(state: WhodunitState) -> Optional[Message]:
    for message in reversed(state.channel.messages):
        if message.kind is MessageKind.REQUEST_SPECIFIC:
            return message
        if message.kind in (MessageKind.RESPOND, MessageKind.RESPOND_BROAD):
            return None
    return None


def _validate_asym(state: WhodunitState, agent: str, action: AsymAction) -> None:
    role = state.role_of(agent)
    spec = state.spec
    if role == ROLE_ACCUSER:
        _require(
            action.prime
            in (MessageKind.REQUEST_SPECIFIC, MessageKind.REQUEST_BROAD, MessageKind.ACCUSE),
            f"{action.prime.value} is not an accuser action",
        )
        if action.prime is MessageKind.REQUEST_SPECIFIC:
            _require(action.target is not None, "request-specific needs a target")
            _require(1 <= action.target <= len(spec.suspects), "target out of range")
            _require(action.prop in spec.schema.names, "unknown property")
            _require(
                action.value in spec.schema.values_of(action.prop), "unknown value"
            )
        elif action.prime is MessageKind.ACCUSE:
            _require(action.target is not None, "accuse needs a target")
            _require(1 <= action.target <= len(spec.suspects), "target out of range")
    elif role == ROLE_INTEL:
        _require(
            action.prime in (MessageKind.RESPOND, MessageKind.RESPOND_BROAD),
            f"{action.prime.value} is not an intel action",
        )
        if action.prime is MessageKind.RESPOND:
            _require(action.truth is not None, "respond needs a boolean value")
            _require(
                _pending_specific_request(state) is not None,
                "no pending specific request to answer",
            )
        else:
            _require(action.prop in spec.schema.names, "unknown property")
            _require(
                action.value in spec.schema.values_of(action.prop), "unknown value"
            )
            _require(action.broad_list is not None, "broad message needs a character list")
            _require(
                all(1 <= i <= len(spec.suspects) for i in action.broad_list),
                "broad list id out of range",
            )
    else:
        raise IllegalActionError(f"role {role} cannot act in the asymmetric variant")


def _validate_sym(state: WhodunitState, agent: str, action: SymAction) -> None:
    spec = state.spec
    _require(state.role_of(agent) == ROLE_PLAYER, "not a symmetric player")
    _require(
        action.prime in (MessageKind.SHARE, MessageKind.ACCUSE, MessageKind.SKIP),
        f"{action.prime.value} is not a symmetric action",
    )
    if action.prime is MessageKind.SHARE:
        if action.fact is not None:
            _require(action.fact[0] in spec.schema.names, "unknown property")
        else:
            facts = state.knowledge[agent].culprit_facts
            _require(action.fact_index is not None, "share needs a fact")
            _require(0 <= action.fact_index < len(facts), "fact index out of range")
    elif action.prime is MessageKind.ACCUSE:
        _require(action.target is not None, "accuse needs a target")
        _require(1 <= action.target <= len(spec.suspects), "target out of range")


def _render_asym(state: WhodunitState, agent: str, action: AsymAction) -> Message:
    if action.prime is MessageKind.REQUEST_SPECIFIC:
        text = TPL_REQUEST_SPECIFIC.format(
            name=agent, prop=action.prop, target=action.target, value=action.value
        )
        payload = {"target": action.target, "property": action.prop, "value": action.value}
    elif action.prime is MessageKind.REQUEST_BROAD:
        text = TPL_REQUEST_BROAD.format(name=agent)
        payload = {}
    elif action.prime is MessageKind.ACCUSE:
        text = TPL_ACCUSE.format(target=action.target)
        payload = {"target": action.target}
    elif action.prime is MessageKind.RESPOND:
        request = _pending_specific_request(state)
        template = TPL_RESPOND_YES if action.truth else TPL_RESPOND_NO
        text = template.format(
            name=agent,
            target=request.payload["target"],
            value=request.payload["value"],
        )
        payload = {
            "target": request.payload["target"],
            "property": request.payload["property"],
            "value": request.payload["value"],
            "truth": action.truth,
        }
    else:
        ids = "[" + ", ".join(str(i) for i in action.broad_list) + "]"
        text = TPL_RESPOND_BROAD.format(
            name=agent, ids=ids, prop=action.prop, value=action.value
        )
        payload = {
            "property": action.prop,
            "value": action.value,
            "characters": list(action.broad_list),
        }
    return Message(author=agent, kind=action.prime, text=text, payload=payload)


def _render_sym(state: WhodunitState, agent: str, action: SymAction) -> Message:
    if action.prime is MessageKind.SHARE:
        fact = action.fact
        if fact is None:
            fact = state.knowledge[agent].culprit_facts[action.fact_index]
        text = TPL_SHARE.format(name=agent, fact=render_fact(*fact))
        payload = {"property": fact[0], "value": fact[1]}
    elif action.prime is MessageKind.ACCUSE:
        text = TPL_ACCUSE.format(target=action.target)
        payload = {"target": action.target}
    else:
        text = TPL_SKIP.format(name=agent)
        payload = {}
    return Message(author=agent, kind=action.prime, text=text, payload=payload)


def step(state: WhodunitState, action: AsymAction | SymAction) -> None:
    """Apply the next agent's action: validate, render, append, terminate.

    Accusations end the game immediately; hitting the turn limit without an
    accusation is a timeout. Raises IllegalActionError on malformed or
    role-forbidden actions, leaving the state untouched so the harness can
    apply its malformed-generation policy.
    """
    _require(not state.terminal, "game already terminal")
    agent = state.next_agent
    if state.spec.variant is Variant.ASYMMETRIC:
        if not isinstance(action, AsymAction):
            raise IllegalActionError("asymmetric game expects an AsymAction")
        _validate_asym(state, agent, action)
        message = _render_asym(state, agent, action)
    else:
        if not isinstance(action, SymAction):
            raise IllegalActionError("symmetric game expects a SymAction")
        _validate_sym(state, agent, action)
        message = _render_sym(state, agent, action)

    accusing = action.prime is MessageKind.ACCUSE
    state.channel.append(message, irreversible=accusing)
    if accusing:
        state.accused_id = action.target
        state.outcome = (
            Outcome.SUCCESS
            if action.target == state.spec.culprit_id
            else Outcome.WRONG_ACCUSATION
        )
    _advance(state)


def consume_turn(state: WhodunitState) -> None:
    """Spend the current turn without a message (malformed-generation policy)."""
    _require(not state.terminal, "game already terminal")
    _advance(state)


def _advance(state: WhodunitState) -> None:
    played = state.turn_index
    state.turn_index += 1
    state.next_index = (state.next_index + 1) % len(state.order)
    if state.outcome is None and played >= state.spec.turn_limit:
        state.outcome = Outcome.TIMEOUT


@dataclass(frozen=True)
class WhodunitMetrics:
    success_rate: float
    precision: Optional[float]
    avg_length: float
    games: int


def whodunit_metrics(trajectories: Sequence) -> WhodunitMetrics:
    """Success-Rate and Precision in percent, plus mean cumulative length.

    Precision restricts to games that ended with an accusation and is None
    when no game did.
    """
    if not trajectories:
        raise ValueError("no trajectories")
    total = len(trajectories)
    successes = sum(1 for t in trajectories if t.outcome is Outcome.SUCCESS)
    accused = sum(1 for t in trajectories if t.accused_id is not None)
    avg_length = sum(t.length for t in trajectories) / total
    precision = 100.0 * successes / accused if accused else None
    return WhodunitMetrics(
        success_rate=100.0 * successes / total,
        precision=precision,
        avg_length=avg_length,
        games=total,
    )


# Parsers for the rendered wire format, used by scripted agents (which only
# ever see the rendered channel and re-parse all of it every turn).

# Distinct lines the parse cache keeps. Every turn re-parses the game's
# whole channel, so a game needs only its few dozen lines cached; request
# lines also recur across games, while broad answers mostly belong to one
# game. On the 480 asymmetric games of the CLI walkthrough (17,525 parses
# of 1,723 distinct lines) this size misses 1,756 times, against 1,723 for
# an unbounded cache, and costs under a megabyte of memory.
PARSE_CACHE_SIZE = 1024

_RE_REQUEST_SPECIFIC = re.compile(
    r"^Agent (?P<name>.+) has requested information: "
    r"is property (?P<prop>\S+) of character (?P<target>\d+) (?P<value>.+)\?$"
)
_RE_REQUEST_BROAD = re.compile(
    r"^Agent (?P<name>.+) has asked for general information \(a broad message\)$"
)
_RE_RESPOND = re.compile(
    r"^Agent (?P<name>.+) has responded that character (?P<target>\d+) "
    r"(?P<verdict>is not|is) (?P<value>.+)$"
)
_RE_RESPOND_BROAD = re.compile(
    r"^Agent (?P<name>.+) has decided to return a broad message: "
    r"For characters \[(?P<ids>[^\]]*)\], the property (?P<prop>\S+) is (?P<value>.+)$"
)
_RE_SHARE = re.compile(
    r"^Player (?P<name>.+) has decided to share a fact about the Winner: "
    r"their (?P<prop>\S+) is (?P<value>.+)\.$"
)
_RE_ACCUSE = re.compile(r"^The winner is (?P<target>\d+)\.$")
_RE_SKIP = re.compile(r"^Player (?P<name>.+) has decided to skip their turn\.$")


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rendered(text: str) -> Optional[dict]:
    """Parse one rendered channel line back into (kind, fields).

    Returns None for free-form lines (discussion, system notices). Results
    are memoized per line, so the same dict is handed to every caller of
    the same line: callers must treat it as read-only.
    """
    m = _RE_REQUEST_SPECIFIC.match(text)
    if m:
        return {
            "kind": MessageKind.REQUEST_SPECIFIC,
            "name": m["name"],
            "property": m["prop"],
            "target": int(m["target"]),
            "value": m["value"],
        }
    m = _RE_RESPOND_BROAD.match(text)
    if m:
        ids = tuple(int(x) for x in m["ids"].split(",") if x.strip()) if m["ids"] else ()
        return {
            "kind": MessageKind.RESPOND_BROAD,
            "name": m["name"],
            "characters": ids,
            "property": m["prop"],
            "value": m["value"],
        }
    m = _RE_RESPOND.match(text)
    if m:
        return {
            "kind": MessageKind.RESPOND,
            "name": m["name"],
            "target": int(m["target"]),
            "truth": m["verdict"] == "is",
            "value": m["value"],
        }
    m = _RE_REQUEST_BROAD.match(text)
    if m:
        return {"kind": MessageKind.REQUEST_BROAD, "name": m["name"]}
    m = _RE_SHARE.match(text)
    if m:
        return {
            "kind": MessageKind.SHARE,
            "name": m["name"],
            "property": m["prop"],
            "value": m["value"],
        }
    m = _RE_ACCUSE.match(text)
    if m:
        return {"kind": MessageKind.ACCUSE, "target": int(m["target"])}
    m = _RE_SKIP.match(text)
    if m:
        return {"kind": MessageKind.SKIP, "name": m["name"]}
    return None
