"""Both WhoDunit variants: one ``Action`` type, the table of message kinds
each role may send, one validate rule per kind, knowledge distribution
and termination.

The channel keeps each message once, as its kind and fields (the sender's
``name`` among them), and renders no text: agents read those events. The
rendered lines are a wire format, made by :func:`render` only where text
is read (an LLM prompt). ``parse_rendered`` serves the interfaces that
have only text (replayed transcripts, prompts read back). One template
table, ``TEMPLATES``, drives both rendering and parsing, so the exact
strings in it are load-bearing and covered by tests.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    CommunicationChannel,
    GameSpec,
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

# Each field a template names, under its ``parse_rendered`` key: its parse
# pattern, its text from a value and its value from the text.
FIELDS = {
    "name": (r".+", str, str),
    "property": (r"\S+", str, str),
    "target": (r"\d+", str, int),
    "value": (r".+", str, str),
    "characters": (r"[^\]]*", lambda ids: ", ".join(map(str, ids)),
                   lambda text: tuple(int(x) for x in text.split(",") if x.strip())),
    "truth": (r"is not|is", lambda truth: "is" if truth else "is not", lambda text: text == "is"),
}

# The wire format, one template per message kind, in the order
# ``parse_rendered`` tries them.
TEMPLATES = {
    MessageKind.REQUEST_SPECIFIC: "Agent {name} has requested information: is property {property} of character {target} {value}?",
    MessageKind.RESPOND_BROAD: "Agent {name} has decided to return a broad message: For characters [{characters}], the property {property} is {value}",
    MessageKind.RESPOND: "Agent {name} has responded that character {target} {truth} {value}",
    MessageKind.REQUEST_BROAD: "Agent {name} has asked for general information (a broad message)",
    MessageKind.SHARE: "Player {name} has decided to share a fact about the Winner: their {property} is {value}.",
    MessageKind.ACCUSE: "The winner is {target}.",
    MessageKind.SKIP: "Player {name} has decided to skip their turn.",
}


def render(kind: MessageKind, **fields: object) -> str:
    """The channel line of a message of ``kind``; unnamed fields are left out."""
    return TEMPLATES[kind].format_map({key: FIELDS[key][1](v) for key, v in fields.items()})


def _parser(template: str) -> tuple:
    """A template's whole-line match and the key and reader of each field."""
    parts = re.split(r"\{(\w+)\}", template)  # literal, key, literal, ..., literal
    pattern = "".join(
        f"({FIELDS[part][0]})" if i % 2 else re.escape(part) for i, part in enumerate(parts)
    )
    return re.compile(pattern + "$").match, tuple((key, FIELDS[key][2]) for key in parts[1::2])


_PARSERS = tuple((kind, *_parser(template)) for kind, template in TEMPLATES.items())


def parse_rendered(text: str) -> Optional[dict]:
    """Parse one rendered channel line back into its kind and fields: the
    first template in ``TEMPLATES`` the whole line fits.

    Returns None for free-form lines (discussion, system notices).
    """
    for kind, match, readers in _PARSERS:
        m = match(text)
        if m is not None:
            parsed = {"kind": kind}
            for (key, read), field_text in zip(readers, m.groups()):
                parsed[key] = read(field_text)
            return parsed
    return None


@dataclass(frozen=True)
class Action:
    """One action of either variant. ``prime`` is the message kind; each
    kind reads its own fields (``_KIND_RULES`` below checks them).

    A share's ``fact`` overrides its ``fact_index`` when present, which
    lets synthetic rogues share false content; the environment renders
    whatever the agent claims and never verifies truthfulness.
    """

    prime: MessageKind
    target: Optional[int] = None
    prop: Optional[str] = None
    value: Optional[str] = None
    truth: Optional[bool] = None
    broad_list: Optional[tuple[int, ...]] = None
    fact_index: Optional[int] = None
    fact: Optional[tuple[str, str]] = None

    def to_json_obj(self) -> dict:
        """The kind and every set field, under its trajectory key."""
        obj: dict = {"kind": self.prime.value}
        for name, value in vars(self).items():
            if value is not None and name != "prime":
                key = _JSON_KEYS.get(name, name)
                obj[key] = list(value) if isinstance(value, tuple) else value
        return obj


# The trajectory keys of the Action fields not written under their own name.
_JSON_KEYS = {"prop": "property", "broad_list": "characters"}

# The message kinds each role may send, in the order the prompts number
# the role's actions: an LLM's action code k is its role's kth kind here.
ROLE_KINDS = {
    ROLE_ACCUSER: (MessageKind.REQUEST_SPECIFIC, MessageKind.REQUEST_BROAD, MessageKind.ACCUSE),
    ROLE_INTEL: (MessageKind.RESPOND, MessageKind.RESPOND_BROAD),
    ROLE_PLAYER: (MessageKind.SHARE, MessageKind.ACCUSE, MessageKind.SKIP),
}


@dataclass(frozen=True)
class KnowledgeSet:
    role: str
    culprit_facts: tuple[tuple[str, str], ...] = ()
    suspect_table: Optional[tuple] = None
    # The suspects_with lookups made so far; one game's knowledge sets share it.
    ids_with: dict = field(default_factory=dict, compare=False, repr=False)

    def suspects_with(self, pair: tuple[str, str]) -> tuple[int, ...]:
        """Ids of the table's suspects with ``pair``, a (property, value), in
        table order, looked up on first use: a symmetric game asks about a
        few pairs, so a whole map per game costs more than it saves."""
        known = self.ids_with
        if pair not in known:
            known[pair] = tuple(s.suspect_id for s in self.suspect_table if pair in s.assignment)
        return known[pair]


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


def deal_symmetric_facts(
    spec: GameSpec,
    n_agents: int,
    facts_per_agent: int,
    seed: int,
) -> dict[str, KnowledgeSet]:
    """Deal disjoint true culprit facts, ``facts_per_agent`` to each of
    ``n_agents`` players: DEFAULT_PLAYER_NAMES first, then Player9, Player10..."""
    names = spec.schema.names
    if n_agents * facts_per_agent > len(names):
        raise InfeasibleRequestError(
            f"{n_agents} x {facts_per_agent} facts exceed {len(names)} attributes"
        )
    rng = random.Random(seed)
    dealt = rng.sample(list(names), n_agents * facts_per_agent)
    culprit_values = spec.culprit.as_dict()
    ids_with: dict = {}  # one lookup table for the game's players
    knowledge: dict[str, KnowledgeSet] = {}
    for i in range(n_agents):
        agent = DEFAULT_PLAYER_NAMES[i] if i < len(DEFAULT_PLAYER_NAMES) else f"Player{i + 1}"
        chunk = dealt[i * facts_per_agent : (i + 1) * facts_per_agent]
        knowledge[agent] = KnowledgeSet(
            role=ROLE_PLAYER,
            culprit_facts=tuple((name, culprit_values[name]) for name in chunk),
            suspect_table=spec.suspects,
            ids_with=ids_with,
        )
    return knowledge


def new_game(
    spec: GameSpec,
    n_agents: int = 4,
    facts_per_agent: int = 3,
    deal_seed: int = 0,
) -> WhodunitState:
    """Fresh state for a spec: knowledge dealt, accuser (or first player) to act."""
    if spec.variant is Variant.ASYMMETRIC:
        knowledge = {
            DEFAULT_ACCUSER_NAME: KnowledgeSet(
                role=ROLE_ACCUSER, culprit_facts=spec.culprit.assignment
            ),
            DEFAULT_INTEL_NAME: KnowledgeSet(role=ROLE_INTEL, suspect_table=spec.suspects),
        }
    else:
        knowledge = deal_symmetric_facts(spec, n_agents, facts_per_agent, deal_seed)
    return WhodunitState(
        spec=spec, channel=CommunicationChannel(), knowledge=knowledge, order=list(knowledge)
    )


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise IllegalActionError(reason)


def _pending_specific_request(state: WhodunitState) -> Optional[dict]:
    """The fields of the last specific request, if no response followed it."""
    for kind, fields in reversed(state.channel.events()):
        if kind is MessageKind.REQUEST_SPECIFIC:
            return fields
        if kind in (MessageKind.RESPOND, MessageKind.RESPOND_BROAD):
            return None
    return None


def _check_target(state: WhodunitState, target: Optional[int]) -> None:
    _require(target is not None, "missing target")
    _require(1 <= target <= len(state.spec.suspects), "target out of range")


def _check_pair(state: WhodunitState, prop: Optional[str], value: Optional[str]) -> None:
    schema = state.spec.schema
    _require(prop in schema.names, "unknown property")
    _require(value in schema.values_of(prop), "unknown value")


# One validate routine per message kind. Each raises IllegalActionError
# before it touches anything, or returns the fields of the message the
# action sends.


def _request_specific(state: WhodunitState, agent: str, action: Action) -> dict:
    _check_target(state, action.target)
    _check_pair(state, action.prop, action.value)
    return {"target": action.target, "property": action.prop, "value": action.value}


def _no_fields(state: WhodunitState, agent: str, action: Action) -> dict:
    return {}


def _accuse(state: WhodunitState, agent: str, action: Action) -> dict:
    _check_target(state, action.target)
    return {"target": action.target}


def _respond(state: WhodunitState, agent: str, action: Action) -> dict:
    _require(action.truth is not None, "respond needs a boolean value")
    request = _pending_specific_request(state)
    _require(request is not None, "no pending specific request to answer")
    return {**request, "truth": action.truth}


def _respond_broad(state: WhodunitState, agent: str, action: Action) -> dict:
    _check_pair(state, action.prop, action.value)
    _require(action.broad_list is not None, "broad message needs a character list")
    for target in action.broad_list:
        _check_target(state, target)
    characters = tuple(action.broad_list)
    return {"characters": characters, "property": action.prop, "value": action.value}


def _share(state: WhodunitState, agent: str, action: Action) -> dict:
    fact = action.fact
    if fact is not None:
        _require(fact[0] in state.spec.schema.names, "unknown property")
    else:
        facts = state.knowledge[agent].culprit_facts
        _require(action.fact_index is not None, "share needs a fact")
        _require(0 <= action.fact_index < len(facts), "fact index out of range")
        fact = facts[action.fact_index]
    return {"property": fact[0], "value": fact[1]}


_KIND_RULES = {
    MessageKind.REQUEST_SPECIFIC: _request_specific,
    MessageKind.REQUEST_BROAD: _no_fields,
    MessageKind.ACCUSE: _accuse,
    MessageKind.RESPOND: _respond,
    MessageKind.RESPOND_BROAD: _respond_broad,
    MessageKind.SHARE: _share,
    MessageKind.SKIP: _no_fields,
}


def step(state: WhodunitState, action: Action) -> None:
    """Apply the next agent's action: validate, append, terminate.

    Accusations end the game immediately; hitting the turn limit without an
    accusation is a timeout. Raises IllegalActionError on malformed or
    role-forbidden actions, leaving the state untouched so the harness can
    apply its malformed-generation policy.
    """
    _require(not state.terminal, "game already terminal")
    agent = state.next_agent
    role = state.role_of(agent)
    _require(action.prime in ROLE_KINDS[role], f"{role} cannot send {action.prime.value}")
    fields = _KIND_RULES[action.prime](state, agent, action)

    accusing = action.prime is MessageKind.ACCUSE
    # The sender's name wins over a name a respond copies from its request.
    state.channel.append(action.prime, {**fields, "name": agent}, irreversible=accusing)
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
