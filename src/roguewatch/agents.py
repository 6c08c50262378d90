"""Agent decision contract, deterministic scripted oracles, and a synthetic
rogue wrapper with controllable corruption. Every backend, these and
``llm.LlmAgent``, answers ``decide(obs, temperature=None)`` and ``reset()``;
a resample is one more ``decide`` at the intervention's temperature, which
only a sampling backend reads.

Scripted agents are stateless: every turn they derive their view of the
game from the observation alone, its knowledge and the channel's events.
That makes them trivially consistent after channel rollbacks and makes
resampling a deterministic no-op. The game hands agents events, never
text; an observation built from text alone (a prompt read back, a replayed
transcript) parses its ``channel_view`` lines once into the same events.

The rogue wrapper is a test instrument: it receives the ground-truth
GameSpec so its corruption can be made failure-forcing, which real agents
obviously cannot do. It corrupts only the observation its base sees, never
the base. Its corruption RNG stream deliberately survives resets, so a
re-run after an intervention draws fresh corruption coins.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass, replace
from typing import Optional, Sequence

from .core import GameSpec, MessageKind, number, one_of, pair, section
from .whodunit import ROLE_ACCUSER, Action, KnowledgeSet, parse_rendered

CLEAN_BAND = (0.0, 0.2)
CORRUPT_BAND = (0.8, math.log(10.0))

BEHAVIOR_HALLUCINATE = "hallucinate-fact"
BEHAVIOR_REPEAT = "repeat-query"
BEHAVIOR_WRONG_ACCUSATION = "wrong-accusation"
BEHAVIOR_DROP_FACT = "drop-known-fact"
BEHAVIORS = (BEHAVIOR_HALLUCINATE, BEHAVIOR_REPEAT, BEHAVIOR_WRONG_ACCUSATION, BEHAVIOR_DROP_FACT)

_ONE_HOT_10 = (1.0,) + (0.0,) * 9


@dataclass(frozen=True)
class AgentObservation:
    """Everything an agent may condition on: its private knowledge, the
    channel's events and the public game parameters.

    ``events`` holds one (kind, fields) pair per channel message; the fields
    dicts are the channel's own, so agents must not mutate them. An
    observation built from text alone (a prompt read back, a replayed
    transcript) passes the rendered lines as ``channel_view`` and no
    ``events``, and derives them from the lines."""

    knowledge: KnowledgeSet
    turn_index: int
    turn_limit: int
    role: str
    n_suspects: int
    events: Optional[tuple[tuple[MessageKind, dict], ...]] = None
    channel_view: InitVar[Sequence[str]] = ()

    def __post_init__(self, channel_view: Sequence[str]) -> None:
        if self.events is None:
            object.__setattr__(self, "events", _events_from_text(channel_view))


def _events_from_text(channel_view: Sequence[str]) -> tuple[tuple[MessageKind, dict], ...]:
    """The events of rendered channel lines, as the channel itself records
    them: each parsed line's kind and fields, and a yes/no respond with the
    property of the request line before it."""
    events = []
    request: Optional[dict] = None
    for line in channel_view:
        fields = parse_rendered(line)
        if fields is None:
            continue
        kind = fields.pop("kind")
        if kind is MessageKind.REQUEST_SPECIFIC:
            request = fields
        elif kind is MessageKind.RESPOND and request is not None:
            fields["property"] = request["property"]
        events.append((kind, fields))
    return tuple(events)


@dataclass
class AgentDecision:
    action: Action
    positions: tuple[tuple[float, ...], ...] = ()


# A computed two-level entropy is within 3e-15 of the true h (sizes to 10^6), which falls on
# [1/size, 1]: a computed h(a) SURE_MARGIN above the target puts all h on [1/size, a] above it.
SURE_MARGIN = 1e-13


def _entropy_bracket(target: float, size: int, max_h: float) -> tuple[float, float]:
    """(a, b) around the root of h(p) = target, with h(a) > target + SURE_MARGIN
    and b = 1 or h(b) < target - SURE_MARGIN, found by Halley steps from the
    chord under the concave h; (0.0, 1.0), which certifies nothing, if none is."""
    log, n = math.log, size - 1
    h = lambda x: -x * log(x) - (1.0 - x) * log((1.0 - x) / n)
    p = 1.0 - target * n / (size * max_h)
    for _ in range(12):
        if not 1.0 / size < p < 1.0:
            break
        lp, lq = log(p), log((1.0 - p) / n)
        slope, gap = lq - lp, -p * lp - (1.0 - p) * lq - target  # h'(p), h(p) - target
        if not slope < 0.0:
            break
        step = gap / (slope + gap * (1.0 / p + 1.0 / (1.0 - p)) / (2.0 * slope))
        p -= step
        if abs(step) < 1e-6:  # Halley converges cubically: p is now about at the root
            a, b = p + 1.2 * SURE_MARGIN / slope, min(1.0, p - 1.2 * SURE_MARGIN / slope)
            sure = a > 1.0 / size and h(a) > target + SURE_MARGIN
            return (a, b) if sure and (b == 1.0 or h(b) < target - SURE_MARGIN) else (0.0, 1.0)
    return 0.0, 1.0


def distribution_with_entropy(target: float, size: int = 10) -> tuple[float, ...]:
    """A two-level distribution over ``size`` candidates with the given
    entropy (nats): probability p on the first entry, the rest uniform.

    Entropy runs monotonically from 0 (p=1) to ln(size) (p=1/size), so the
    target is found by bisection of at most 80 steps. Once a step leaves
    (lo, hi) unchanged every later step would too, so the loop stops there
    (after about 54 steps) with the same bits as the full 80. Only midpoints
    inside the certified bracket around the root compute h and take logs.
    """
    max_h = math.log(size)
    if not 0.0 <= target <= max_h + 1e-12:
        raise ValueError(f"entropy target {target} outside [0, ln {size}]")

    a, b = _entropy_bracket(target, size, max_h)
    log = math.log
    lo, hi = 1.0 / size, 1.0  # h(lo)=ln(size), h(hi)=0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        # h(mid) > target: sure up to a, never from b on (b <= 1 and h(1) = 0)
        if mid <= a or mid < b and (
            -mid * log(mid) - (1.0 - mid) * log((1.0 - mid) / (size - 1)) > target
        ):
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    p = (lo + hi) / 2.0
    rest = (1.0 - p) / (size - 1)
    return (p,) + (rest,) * (size - 1)


class ScriptedAccuser:
    """Elimination accuser: keeps a candidate set, asks about the lowest-id
    candidate's next unconfirmed attribute using the believed culprit value,
    and accuses once a single candidate remains or is fully confirmed.

    Yes/no answers eliminate one candidate at a time; broad answers
    intersect the candidate set with the returned character list. The
    believed culprit is the observation's ``culprit_facts``, which a rogue
    wrapper may have corrupted.
    """

    def reset(self) -> None:
        pass

    def survey(self, obs: AgentObservation) -> tuple[set[int], dict[int, set[str]]]:
        """Candidates and per-candidate confirmed attributes, derived from
        the channel's events under the observation's beliefs."""
        believed = dict(obs.knowledge.culprit_facts)
        candidates = set(range(1, obs.n_suspects + 1))
        confirmed: dict[int, set[str]] = {i: set() for i in candidates}
        for kind, event in obs.events:
            if kind is MessageKind.RESPOND and "property" in event:
                target, prop = event["target"], event["property"]
                asked_value = event["value"]
                if event["truth"]:
                    if asked_value == believed.get(prop):
                        confirmed.setdefault(target, set()).add(prop)
                    else:
                        candidates.discard(target)
                elif asked_value == believed.get(prop):
                    candidates.discard(target)
            elif kind is MessageKind.RESPOND_BROAD:
                prop, value = event["property"], event["value"]
                listed = set(event["characters"])
                if believed.get(prop) == value:
                    candidates &= listed
                    for c in candidates:
                        confirmed.setdefault(c, set()).add(prop)
                else:
                    candidates -= listed
        return candidates, confirmed

    def decide(self, obs: AgentObservation, temperature: Optional[float] = None) -> AgentDecision:
        believed = dict(obs.knowledge.culprit_facts)
        attribute_order = [prop for prop, _ in obs.knowledge.culprit_facts]
        candidates, confirmed = self.survey(obs)

        if len(candidates) == 1:
            action = Action(MessageKind.ACCUSE, target=min(candidates))
        elif not candidates:
            # Contradictory transcript (only reachable with corrupted
            # beliefs or a lying partner): best-effort accusation.
            action = Action(MessageKind.ACCUSE, target=1)
        else:
            target = min(candidates)
            fully_confirmed = [
                c for c in sorted(candidates) if confirmed[c] >= set(attribute_order)
            ]
            if fully_confirmed:
                action = Action(MessageKind.ACCUSE, target=fully_confirmed[0])
            else:
                prop = next(p for p in attribute_order if p not in confirmed[target])
                action = Action(
                    MessageKind.REQUEST_SPECIFIC,
                    target=target,
                    prop=prop,
                    value=believed[prop],
                )
        return AgentDecision(action=action, positions=(_ONE_HOT_10,))


class ScriptedIntel:
    """Truthful intel. With ``broad_for_specific`` (the default) it answers
    a specific request with a broad message on the queried property and
    value, listing every matching character; otherwise it answers yes/no.
    Broad requests get the (property, value) split that most evenly divides
    the suspects still consistent with the culprit values revealed by the
    requester's earlier specific queries."""

    def __init__(self, broad_for_specific: bool = True) -> None:
        self.broad_for_specific = broad_for_specific

    def reset(self) -> None:
        pass

    def decide(self, obs: AgentObservation, temperature: Optional[float] = None) -> AgentDecision:
        knowledge = obs.knowledge
        events = obs.events
        pending_kind, pending = events[-1] if events else (None, None)

        if pending_kind is MessageKind.REQUEST_SPECIFIC:
            prop, value = pending["property"], pending["value"]
            holders = knowledge.suspects_with((prop, value))
            if self.broad_for_specific:
                action = Action(
                    MessageKind.RESPOND_BROAD, prop=prop, value=value, broad_list=holders
                )
            else:
                action = Action(MessageKind.RESPOND, truth=pending["target"] in holders)
            return AgentDecision(action=action, positions=(_ONE_HOT_10,))

        # Broad request (or nothing pending): pick the most even split.
        revealed = {
            e["property"]: e["value"] for kind, e in events if kind is MessageKind.REQUEST_SPECIFIC
        }
        consistent = _consistent(knowledge, revealed)
        broadcast_pairs = {
            (e["property"], e["value"]) for kind, e in events if kind is MessageKind.RESPOND_BROAD
        }
        values: dict[str, set[str]] = {}
        for suspect in knowledge.suspect_table:
            for prop, value in suspect.assignment:
                values.setdefault(prop, set()).add(value)
        schema_pairs = [(prop, value) for prop, vs in values.items() for value in sorted(vs)]

        best = None
        best_score = -1
        for pair in schema_pairs:
            if pair in broadcast_pairs:
                continue
            inside = len(consistent.intersection(knowledge.suspects_with(pair)))
            score = min(inside, len(consistent) - inside)
            if score > best_score:
                best, best_score = pair, score
        if best is None:
            best = schema_pairs[0]
        prop, value = best
        action = Action(
            MessageKind.RESPOND_BROAD,
            prop=prop,
            value=value,
            broad_list=knowledge.suspects_with(best),
        )
        return AgentDecision(action=action, positions=(_ONE_HOT_10,))


class ScriptedSymmetricPlayer:
    """Shares the first own fact that shrinks the publicly-consistent
    candidate set; accuses when that set is a singleton; skips otherwise."""

    def reset(self) -> None:
        pass

    def decide(self, obs: AgentObservation, temperature: Optional[float] = None) -> AgentDecision:
        public = {e["property"]: e["value"] for kind, e in obs.events if kind is MessageKind.SHARE}
        consistent = _consistent(obs.knowledge, public)
        if len(consistent) == 1:
            action = Action(MessageKind.ACCUSE, target=min(consistent))
            return AgentDecision(action=action, positions=(_ONE_HOT_10,))

        for index, (prop, value) in enumerate(obs.knowledge.culprit_facts):
            if prop in public:
                continue
            # Sharing the fact shrinks the set unless every member has it.
            if not consistent.issubset(obs.knowledge.suspects_with((prop, value))):
                action = Action(MessageKind.SHARE, fact_index=index, fact=(prop, value))
                return AgentDecision(action=action, positions=(_ONE_HOT_10,))
        return AgentDecision(action=Action(MessageKind.SKIP), positions=(_ONE_HOT_10,))


def _consistent(knowledge: KnowledgeSet, facts: dict[str, str]) -> set[int]:
    """Ids of the suspects in the table that have every (property, value)
    in ``facts``."""
    consistent = {s.suspect_id for s in knowledge.suspect_table}
    for pair in facts.items():
        consistent.intersection_update(knowledge.suspects_with(pair))
    return consistent


@dataclass(frozen=True)
class RogueProfile:
    """Corruption knobs for the synthetic rogue.

    ``epsilon`` is the per-turn corruption probability; ``behaviors`` is a
    weighted choice over corruption kinds; the entropy bands control the
    annotated-position uncertainty on clean vs corrupted turns and must be
    separated (clean upper bound below the corrupt lower bound).
    """

    epsilon: float
    behaviors: tuple[tuple[str, float], ...] = ((BEHAVIOR_HALLUCINATE, 1.0),)
    clean_band: tuple[float, float] = CLEAN_BAND
    corrupt_band: tuple[float, float] = CORRUPT_BAND

    def __post_init__(self) -> None:
        number("epsilon", self.epsilon, 0, 1)
        for name, weight in self.behaviors:
            one_of("behaviors", name, BEHAVIORS)
            number(f"behaviors.{name}", weight, 0)
        total = math.fsum(w for _, w in self.behaviors)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"behaviors: {dict(self.behaviors)!r} is weighted {total}, not 1")
        # The rogue annotates each turn with a distribution over 10 candidates,
        # so a band's entropies lie in [0, ln 10].
        for name in ("clean_band", "corrupt_band"):
            object.__setattr__(self, name, pair(name, getattr(self, name), 0, CORRUPT_BAND[1]))
        clean, corrupt = self.clean_band, self.corrupt_band
        if not clean[1] < corrupt[0]:
            raise ValueError(f"corrupt_band: {corrupt!r} is not above clean_band {clean!r}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RogueProfile":
        """From a backend spec like {"epsilon": 0.3}; omitted behaviors and
        bands take the defaults above."""
        behaviors = section("behaviors", obj.get("behaviors", {BEHAVIOR_HALLUCINATE: 1.0}))
        return cls(
            epsilon=obj["epsilon"],
            behaviors=tuple(sorted(behaviors.items())),
            clean_band=obj.get("clean_band", CLEAN_BAND),
            corrupt_band=obj.get("corrupt_band", CORRUPT_BAND),
        )


class RogueAgent:
    """Wraps a scripted policy and corrupts it per turn with probability
    epsilon. Corrupted turns carry corrupt-band uncertainty annotations.

    hallucinate-fact flips one of the rogue's own copies of the culprit
    facts, which its base sees from then on in place of the true ones (the
    outward queries then use the wrong value, exactly the failure mode of an
    agent that misremembers the target description; the intel knows no
    culprit facts, so for it only the corrupt-band annotation remains) and
    marks the agent poisoned; poisoned accusations are redirected to the
    lowest-id non-culprit so a corrupted game can never succeed by luck.
    wrong-accusation ends the game immediately on a random non-culprit.
    repeat-query re-issues the previous request. drop-known-fact re-asks
    something already answered.
    """

    def __init__(self, profile: RogueProfile, base: object, spec: GameSpec, seed: int) -> None:
        self.profile = profile
        self.base = base
        self.spec = spec
        self.rng = random.Random(seed)
        self.reset()

    def reset(self) -> None:
        """Fresh game, same corruption stream (interventions do not reroll
        the past, they give the agent a clean second attempt)."""
        self.flips: dict[str, str] = {}
        # The knowledge the base sees once a fact is flipped, built once per
        # flip; it shares the game's ``suspects_with`` lookups.
        self._flipped: Optional[KnowledgeSet] = None
        self.poisoned = False
        self.last_action: Optional[Action] = None

    def _non_culprits(self) -> list[int]:
        return [s.suspect_id for s in self.spec.suspects if s.suspect_id != self.spec.culprit_id]

    def _flip_belief(self, obs: AgentObservation) -> None:
        """Flip the first not-yet-flipped culprit fact; nothing flips for
        the intel, which knows no culprit facts."""
        facts = obs.knowledge.culprit_facts
        for prop, value in facts:
            if prop not in self.flips:
                values = self.spec.schema.values_of(prop)
                self.flips[prop] = values[(values.index(value) + 1) % len(values)]
                believed = tuple((p, self.flips.get(p, v)) for p, v in facts)
                self._flipped = replace(obs.knowledge, culprit_facts=believed)
                return

    def _band_positions(self, corrupted: bool) -> tuple[tuple[float, ...], ...]:
        band = self.profile.corrupt_band if corrupted else self.profile.clean_band
        target = self.rng.uniform(*band)
        return (distribution_with_entropy(target),)

    def decide(self, obs: AgentObservation, temperature: Optional[float] = None) -> AgentDecision:
        corrupted = self.rng.random() < self.profile.epsilon
        behavior = None
        if corrupted:
            names, weights = zip(*self.profile.behaviors)
            behavior = self.rng.choices(names, weights=weights)[0]

        if behavior == BEHAVIOR_HALLUCINATE:
            self._flip_belief(obs)
            self.poisoned = True
        seen = obs if self._flipped is None else replace(obs, knowledge=self._flipped)
        if behavior == BEHAVIOR_WRONG_ACCUSATION:
            self.poisoned = True
            action = Action(MessageKind.ACCUSE, target=self.rng.choice(self._non_culprits()))
        elif behavior == BEHAVIOR_REPEAT and self.last_action is not None:
            action = self.last_action
        elif behavior == BEHAVIOR_DROP_FACT:
            action = self._re_ask_known(seen)
        else:
            action = self.base.decide(seen).action

        if self.poisoned and action.prime is MessageKind.ACCUSE:
            action = Action(MessageKind.ACCUSE, target=min(self._non_culprits()))

        self.last_action = action
        return AgentDecision(action=action, positions=self._band_positions(corrupted))

    def _re_ask_known(self, obs: AgentObservation) -> Action:
        base_action = self.base.decide(obs).action
        if obs.role != ROLE_ACCUSER:
            return base_action
        candidates, confirmed = self.base.survey(obs)
        for target in sorted(candidates):
            if confirmed[target]:
                prop = min(confirmed[target])
                value = dict(obs.knowledge.culprit_facts)[prop]
                return Action(MessageKind.REQUEST_SPECIFIC, target=target, prop=prop, value=value)
        return base_action
