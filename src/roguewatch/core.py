"""Shared game data model: attribute schemas, suspect generation, the
communication channel with checkpoint/rollback, and trajectory records.

All randomness flows through ``random.Random`` (Mersenne Twister), which
CPython documents as stable across versions and platforms, so generated
games and trajectories replay bit-identically anywhere. Per-game streams
are derived with :func:`derive_seed`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .errors import InfeasibleRequestError

# Attribute table used by both game variants. The first 12 rows form the
# asymmetric schema; the symmetric schema uses all 20.
ATTRIBUTE_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("hat", ("brown", "black")),
    ("mood", ("happy", "sad")),
    ("shirt_color", ("pink", "green")),
    ("hobby", ("basketball", "dancing")),
    ("pants", ("long", "short")),
    ("pants_color", ("brown", "black")),
    ("eye_color", ("blue", "brown", "green")),
    ("eye_glasses", ("circular", "square")),
    ("shirt", ("button-up", "tee")),
    ("shoe_color", ("red", "white")),
    ("hair", ("long", "short")),
    ("watch", ("bronze", "silver")),
    ("socks", ("dotted", "white")),
    ("jacket", ("yellow", "jean")),
    ("height", ("short", "tall")),
    ("age", ("young", "old")),
    ("build", ("medium", "muscular")),
    ("personality", ("introverted", "extroverted")),
    ("interests", ("sports", "arts")),
    ("occupation", ("professional", "student")),
)

ASYMMETRIC_ATTRIBUTE_COUNT = 12


class Variant(str, Enum):
    ASYMMETRIC = "asymmetric"
    SYMMETRIC = "symmetric"


class MessageKind(str, Enum):
    REQUEST_SPECIFIC = "request-specific"
    REQUEST_BROAD = "request-broad"
    RESPOND = "respond"
    RESPOND_BROAD = "respond-broad"
    SHARE = "share"
    ACCUSE = "accuse"
    SKIP = "skip"
    DISCUSSION = "discussion"
    SYSTEM = "system"


class Outcome(str, Enum):
    SUCCESS = "success"
    WRONG_ACCUSATION = "wrong-accusation"
    TIMEOUT = "timeout"
    SURVIVED = "survived"
    COLLAPSED = "collapsed"


def derive_seed(base: int, *parts: object) -> int:
    """Derive a 64-bit child seed from a base seed and a label path.

    Uses blake2b so derived streams are decorrelated and portable.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big")


# Config readers: each returns its value or refuses it as "<key path>: <value!r> is <defect>".
def one_of(key: str, value: object, allowed: Iterable) -> object:
    if type(value).__hash__ is None or value not in allowed:  # an unhashable value is in no set
        raise ValueError(f"{key}: {value!r} is not one of {sorted(allowed)}")
    return value


def section(key: str, obj: object, allowed: Optional[Iterable] = None, required=()) -> dict:
    """``obj`` as a config object: its keys from ``allowed`` (if given), ``required`` among them."""
    if not isinstance(obj, dict):
        raise ValueError(f"{key}: {obj!r} is not an object")
    for name in obj if allowed is not None else ():
        one_of(key, name, allowed)
    for name in required:
        if name not in obj:
            raise ValueError(f"{key}: {name!r} is missing")
    return obj


def integer(key: str, value: object, least: float = -math.inf) -> int:
    if type(value) is not int:
        raise ValueError(f"{key}: {value!r} is not an integer")
    return number(key, value, least)


def number(key: str, value: object, least: float = -math.inf, most: float = math.inf) -> float:
    """A finite int or float (not a bool) in [least, most]."""
    if not (type(value) is int or type(value) is float and math.isfinite(value)):
        raise ValueError(f"{key}: {value!r} is not a finite number")
    if not least <= value <= most:
        defect = f"below {least}" if value < least else f"above {most}"
        raise ValueError(f"{key}: {value!r} is {defect}")
    return value


def items(key: str, value: object, length: Optional[int] = None, noun: str = "a list") -> list:
    """A list of ``length`` items, or of any length if None; else refused as not ``noun``."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        raise ValueError(f"{key}: {value!r} is not {noun}")
    return value


def pair(key: str, value: object, least: float = -math.inf, most: float = math.inf) -> tuple:
    """A pair [lo, hi] of finite numbers with least <= lo <= hi <= most."""
    items(key, value, 2, "a pair [lo, hi]")
    lo = number(f"{key}[0]", value[0], least, most)
    return lo, number(f"{key}[1]", value[1], lo, most)


def string(key: str, value: object) -> str:
    if type(value) is not str:
        raise ValueError(f"{key}: {value!r} is not a string")
    return value


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute names, each with 2-3 possible values.

    Every suspect assignment of a schema is built from the schema's own
    ``(name, value)`` pairs, one tuple object per attribute value, so the
    thousands of profiles of a manifest share them instead of each holding
    fresh copies. Obtain schemas through :meth:`for_variant` or
    :meth:`of`, which hand out one instance per attribute table.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.attributes]
        if len(names) != len(set(names)):
            raise ValueError("attribute names must be unique")
        for name, values in self.attributes:
            if len(set(values)) < 2:
                raise ValueError(f"attribute {name!r} needs at least 2 distinct values")
            if len(values) > 10:
                raise ValueError(f"attribute {name!r} has {len(values)} values; a digit holds 10")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @functools.cached_property
    def _values(self) -> dict[str, tuple[str, ...]]:
        return dict(self.attributes)

    @functools.cached_property
    def pairs(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """Per attribute, in schema order, one ``(name, value)`` pair per value."""
        return tuple(
            tuple((name, value) for value in values) for name, values in self.attributes
        )

    def values_of(self, name: str) -> tuple[str, ...]:
        return self._values[name]

    @functools.cached_property
    def _digit_rows(self) -> tuple[dict, ...]:
        """Per attribute, one dict from each value's digit ("0"-"9") to its
        pair and from each pair back to its digit."""
        return tuple({**dict(zip("0123456789", row)), **dict(zip(row, "0123456789"))}
                     for row in self.pairs)

    def digits_of(self, assignment: tuple[tuple[str, str], ...]) -> str:
        """A schema-ordered assignment as its digit string: digit k is the
        index of the value of attribute k."""
        rows = self._digit_rows
        if len(assignment) == len(rows):
            try:
                return "".join(map(dict.__getitem__, rows, assignment))
            except KeyError:
                pass
        raise ValueError(f"assignment {assignment!r} does not follow the schema")

    def assignment_of(self, code: str) -> tuple[tuple[str, str], ...]:
        """The assignment of a digit string, built from the shared pairs.
        Raises ValueError naming the attribute of a missing, extra or
        out-of-range digit."""
        rows = self._digit_rows
        if len(code) == len(rows):
            try:
                return tuple(map(dict.__getitem__, rows, code))
            except KeyError:
                pass
        for k, name in enumerate(self.names):
            if code[k : k + 1] not in rows[k]:
                raise ValueError(f"attribute {name!r} has no value {code[k : k + 1]!r} in {code!r}")
        raise ValueError(f"{code!r} has a digit past the last attribute, {self.names[-1]!r}")

    def combination_space(self) -> int:
        return math.prod(len(values) for _, values in self.attributes)

    @staticmethod
    @functools.lru_cache(maxsize=16)
    def of(attributes: tuple[tuple[str, tuple[str, ...]], ...]) -> "AttributeSchema":
        """The one schema instance of an attribute table."""
        return AttributeSchema(attributes)

    @classmethod
    def for_variant(cls, variant: Variant | str) -> "AttributeSchema":
        if Variant(variant) is Variant.ASYMMETRIC:
            return cls.of(ATTRIBUTE_TABLE[:ASYMMETRIC_ATTRIBUTE_COUNT])
        return cls.of(ATTRIBUTE_TABLE)


@dataclass(frozen=True)
class SuspectProfile:
    """One suspect: a 1-based id plus a full attribute assignment."""

    suspect_id: int
    assignment: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class GameSpec:
    """A sampled game instance. Immutable and JSON-serializable."""

    schema: AttributeSchema
    suspects: tuple[SuspectProfile, ...]
    culprit_id: int
    turn_limit: int
    variant: Variant
    seed: int

    def __post_init__(self) -> None:
        if len({s.assignment for s in self.suspects}) != len(self.suspects):
            raise ValueError("suspect assignments must be pairwise distinct")
        if not 1 <= self.culprit_id <= len(self.suspects):
            raise ValueError("culprit id out of range")

    @property
    def culprit(self) -> SuspectProfile:
        return self.suspects[self.culprit_id - 1]

    def to_json_obj(self) -> dict:
        """The game without its schema, which the manifest states once.
        Each suspect is its digit string; its id is its 1-based position."""
        return {
            "variant": self.variant.value,
            "suspects": [self.schema.digits_of(s.assignment) for s in self.suspects],
            "culprit_id": self.culprit_id,
            "turn_limit": self.turn_limit,
            "seed": self.seed,
        }

    @classmethod
    def from_json_obj(cls, obj: dict, schema: AttributeSchema) -> "GameSpec":
        return cls(
            schema=schema,
            suspects=tuple(
                SuspectProfile(suspect_id=i, assignment=schema.assignment_of(code))
                for i, code in enumerate(obj["suspects"], 1)
            ),
            culprit_id=obj["culprit_id"],
            turn_limit=obj["turn_limit"],
            variant=Variant(obj["variant"]),
            seed=obj["seed"],
        )


def generate_game(
    variant: Variant | str,
    n_suspects: int,
    turn_limit: int,
    seed: int,
) -> GameSpec:
    """Sample a game: distinct suspect profiles plus a uniform culprit.

    Deterministic for fixed inputs. Profiles are drawn uniformly over the
    attribute product space with rejection until pairwise distinct, so the
    culprit's full description matches exactly one suspect.
    """
    if n_suspects < 2:
        raise InfeasibleRequestError("need at least 2 suspects")
    if turn_limit < 1:
        raise InfeasibleRequestError("turn limit must be positive")
    schema = AttributeSchema.for_variant(variant)
    if schema.combination_space() <= n_suspects:
        raise InfeasibleRequestError(
            f"{n_suspects} distinct profiles exceed the combination space "
            f"of {schema.combination_space()}"
        )

    rng = random.Random(seed)
    rows = schema.pairs
    seen: set[tuple[tuple[str, str], ...]] = set()
    suspects: list[SuspectProfile] = []
    attempts = 0
    max_attempts = 1000 * n_suspects + 10_000
    while len(suspects) < n_suspects:
        attempts += 1
        if attempts > max_attempts:
            raise InfeasibleRequestError("rejection sampling did not converge")
        # rng.choice(row) draws exactly what row[rng.randrange(len(row))] does.
        assignment = tuple(rng.choice(row) for row in rows)
        if assignment in seen:
            continue
        seen.add(assignment)
        suspects.append(SuspectProfile(suspect_id=len(suspects) + 1, assignment=assignment))
    culprit_id = rng.randrange(n_suspects) + 1
    return GameSpec(
        schema=schema,
        suspects=tuple(suspects),
        culprit_id=culprit_id,
        turn_limit=turn_limit,
        variant=Variant(variant),
        seed=seed,
    )


class CommunicationChannel:
    """Ordered message log with checkpoint marks at irreversible boundaries.

    Each message is kept once, as its ``(kind, fields)`` event; a message's
    text is rendered only where text is read. The prefix up to the last
    checkpoint is immutable: every rollback operation refuses to cross it.
    """

    def __init__(self) -> None:
        self._events: list[tuple[MessageKind, dict]] = []  # each message's kind and fields
        self._checkpoints: list[int] = []

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(self._checkpoints)

    @property
    def last_checkpoint(self) -> int:
        """Index (message count) of the last irreversible boundary, 0 if none."""
        return self._checkpoints[-1] if self._checkpoints else 0

    def append(self, kind: MessageKind, fields: dict, irreversible: bool = False) -> None:
        self._events.append((kind, fields))
        if irreversible:
            self._checkpoints.append(len(self._events))

    def rollback_to_checkpoint(self) -> None:
        """Remove every message after the last checkpoint."""
        del self._events[self.last_checkpoint :]

    def events(self) -> tuple[tuple[MessageKind, dict], ...]:
        """Each message's kind and its own fields dict, which callers must not mutate."""
        return tuple(self._events)


@dataclass
class TurnRecord:
    """One agent turn: decision summary, features, and any intervention.

    ``dialog_index`` counts turns over the whole run and never resets;
    ``turn_index`` is the in-game counter that restarts on a full reset.
    """

    turn_index: int
    dialog_index: int
    agent_id: str
    role: str
    action: dict
    features: Optional[dict]
    trigger_fired: bool = False
    intervention: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "turn": self.turn_index,
            "dialog": self.dialog_index,
            "agent": self.agent_id,
            "role": self.role,
            "action": self.action,
            "features": self.features,
            "trigger": self.trigger_fired,
            "intervention": self.intervention,
        }


# One trajectory JSONL line: the bytes of json.dumps(obj, sort_keys=True),
# from one encoder rather than a new one per line.
jsonl_line = json.JSONEncoder(sort_keys=True).encode


@dataclass
class Trajectory:
    """Per-turn records of one whodunit game or commons trial plus the
    final outcome. A commons trial has no game spec; its summary line
    carries its ``totals`` in place of the accused suspect and game seed."""

    game: Optional[GameSpec]
    turns: list[TurnRecord] = field(default_factory=list)
    outcome: Optional[Outcome] = None
    accused_id: Optional[int] = None
    totals: dict = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Final cumulative dialog index (= number of recorded turns)."""
        return self.turns[-1].dialog_index if self.turns else 0

    def summary(self) -> dict:
        """The summary line, the one record of the game's result; reports and
        monitor labels read it."""
        summary = {"outcome": self.outcome.value if self.outcome else None, "length": self.length}
        if self.game is None:
            summary.update(self.totals)
        else:
            summary.update(accused=self.accused_id, game_seed=self.game.seed)
        return summary

    def to_jsonl(self) -> str:
        lines = [jsonl_line(t.to_json_obj()) for t in self.turns]
        return "\n".join([*lines, jsonl_line(self.summary())]) + "\n"


def parse_trajectory_jsonl(text: str) -> list[dict]:
    """Split a trajectories JSONL stream into per-game record lists.

    Returns one dict per game or trial: {"turns": [...], "outcome": ...,
    "length": ..., **rest}, where rest is "accused" and "game_seed" for a
    whodunit game and the totals of a commons trial. A line that is not a
    JSON object is refused as ``line <n>: <defect>``, counted from 1.

    The games hold each object key and string value once: an equal string
    read again is the first one seen in ``text``. Each line string is let go
    once it is decoded, so a log is not held twice over while it is read.
    """
    shared = {}.setdefault  # each string of the log, mapped to its first copy
    decode = json.JSONDecoder(
        object_pairs_hook=lambda pairs: {
            shared(k, k): shared(v, v) if type(v) is str else v for k, v in pairs
        }
    ).decode
    games: list[dict] = []
    turns: list[dict] = []
    lines = text.splitlines()
    lines.reverse()  # popped from the end, so line n is let go after it is decoded
    for n in range(1, len(lines) + 1):
        line = lines.pop().strip()
        if not line:
            continue
        try:
            if line.startswith("\ufeff"):  # json.loads refuses a BOM; JSONDecoder.decode does not
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj = decode(line)
        except ValueError as exc:
            raise ValueError(f"line {n}: {line!r} is not JSON ({exc})") from None
        if "outcome" in section(f"line {n}", obj):
            games.append({"turns": turns, **obj})
            turns = []
        else:
            turns.append(obj)
    return games
