"""Game data model: generation determinism, channel rollback, serialization."""

from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from roguewatch.core import (
    ASYMMETRIC_ATTRIBUTE_COUNT,
    ATTRIBUTE_TABLE,
    AttributeSchema,
    CommunicationChannel,
    GameSpec,
    MessageKind,
    Outcome,
    SuspectProfile,
    Trajectory,
    TurnRecord,
    Variant,
    derive_seed,
    generate_game,
    parse_trajectory_jsonl,
)
from roguewatch.errors import InfeasibleRequestError
from roguewatch.harness import ExperimentConfig, SplitManifest, gen_dataset, run_experiment

from .test_golden import GOLDEN, digests


def msg(i: int, kind: MessageKind = MessageKind.DISCUSSION) -> tuple[MessageKind, dict]:
    return kind, {"text": f"m{i}"}


def rendered(ch: CommunicationChannel) -> list[str]:
    """The channel's lines: the text of each message's event."""
    return [fields["text"] for _, fields in ch.events()]


class TestSchema:
    def test_variant_sizes(self):
        assert len(AttributeSchema.for_variant("asymmetric").attributes) == 12
        assert len(AttributeSchema.for_variant("symmetric").attributes) == 20

    def test_asymmetric_is_table_top_half(self):
        schema = AttributeSchema.for_variant(Variant.ASYMMETRIC)
        assert schema.attributes == ATTRIBUTE_TABLE[:ASYMMETRIC_ATTRIBUTE_COUNT]

    def test_all_attributes_have_two_or_three_values(self):
        for name, values in ATTRIBUTE_TABLE:
            assert 2 <= len(values) <= 3, name

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema((("hat", ("a", "b")), ("hat", ("c", "d"))))


class TestGenerateGame:
    def test_asymmetric_defaults_shape(self):
        spec = generate_game("asymmetric", 10, 31, seed=123)
        assert len(spec.suspects) == 10
        assert all(len(s.assignment) == 12 for s in spec.suspects)
        assert 1 <= spec.culprit_id <= 10
        assert spec.turn_limit == 31

    def test_symmetric_defaults_shape(self):
        spec = generate_game("symmetric", 20, 20, seed=9)
        assert len(spec.suspects) == 20
        assert all(len(s.assignment) == 20 for s in spec.suspects)

    def test_deterministic_for_seed(self):
        a = generate_game("asymmetric", 10, 31, seed=42)
        b = generate_game("asymmetric", 10, 31, seed=42)
        assert a == b
        assert a.to_json_obj() == b.to_json_obj()

    def test_different_seeds_differ(self):
        a = generate_game("asymmetric", 10, 31, seed=1)
        b = generate_game("asymmetric", 10, 31, seed=2)
        assert a != b

    def test_culprit_description_matches_exactly_one_suspect(self):
        for seed in range(50):
            spec = generate_game("asymmetric", 6, 31, seed=seed)
            culprit_values = spec.culprit.as_dict()
            matches = [
                s.suspect_id
                for s in spec.suspects
                if s.as_dict() == culprit_values
            ]
            assert matches == [spec.culprit_id]

    def test_infeasible_when_space_too_small(self):
        # hat x mood only has 4 combinations.
        with pytest.raises(InfeasibleRequestError):
            generate_game("asymmetric", 2 ** 13, 10, seed=0)

    def test_json_roundtrip(self):
        spec = generate_game("symmetric", 5, 20, seed=77)
        obj = json.loads(json.dumps(spec.to_json_obj()))
        assert GameSpec.from_json_obj(obj, spec.schema) == spec

    def test_out_of_schema_value_rejected(self):
        spec = generate_game("asymmetric", 5, 31, seed=3)
        obj = spec.to_json_obj()
        k = spec.schema.names.index("eye_color")  # three values: digits 0-2
        code = obj["suspects"][2]
        obj["suspects"][2] = code[:k] + "3" + code[k + 1 :]
        with pytest.raises(ValueError, match="eye_color"):
            GameSpec.from_json_obj(obj, spec.schema)


class TestSharedPairs:
    """Every profile of a schema is built from the schema's own pairs."""

    @staticmethod
    def assert_one_object_per_pair(specs):
        pairs = [pair for spec in specs for s in spec.suspects for pair in s.assignment]
        assert len({id(pair) for pair in pairs}) == len(set(pairs))

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_generated_and_decoded_manifests_share_pairs(self, variant):
        manifest = gen_dataset("whodunit", seed=0, variant=variant)
        decoded = SplitManifest.from_json_obj(json.loads(json.dumps(manifest.to_json_obj())))
        for m in (manifest, decoded):
            specs = m.train + m.validation + m.test
            assert len(specs) == 480
            self.assert_one_object_per_pair(specs)
        schema = manifest.test[0].schema
        assert decoded.test[0].schema is schema
        assert schema is AttributeSchema.for_variant(variant)
        assert decoded.test[0].suspects[0].assignment[0] in schema.pairs[0]

    def test_schema_lookups(self):
        schema = AttributeSchema.for_variant("symmetric")
        assert schema.names == tuple(name for name, _ in ATTRIBUTE_TABLE)
        assert schema.values_of("eye_color") == ("blue", "brown", "green")
        with pytest.raises(KeyError):
            schema.values_of("tail")


class TestManifestFormat:
    """A whodunit manifest states its schema once; each suspect is a digit
    string whose digit k indexes the value of schema attribute k, and a
    suspect's id is its 1-based position."""

    @staticmethod
    def roundtrip(manifest: SplitManifest) -> tuple[dict, SplitManifest]:
        obj = json.loads(json.dumps(manifest.to_json_obj(), indent=2))
        return obj, SplitManifest.from_json_obj(obj)

    @staticmethod
    def games(manifest: SplitManifest) -> tuple:
        return manifest.env, manifest.train, manifest.validation, manifest.test

    @pytest.mark.parametrize("variant", ["asymmetric", "symmetric"])
    def test_whodunit_roundtrip(self, variant):
        manifest = gen_dataset("whodunit", sizes=(5, 3, 4), seed=2, variant=variant)
        obj, decoded = self.roundtrip(manifest)
        assert self.games(decoded) == self.games(manifest)
        schema = AttributeSchema.for_variant(variant)
        assert obj["schema"] == [[name, list(values)] for name, values in schema.attributes]
        game = obj["test"][0]
        assert sorted(game) == ["culprit_id", "seed", "suspects", "turn_limit", "variant"]
        spec = manifest.test[0]
        assert game["suspects"] == [
            "".join(str(values.index(value)) for (_, values), (_, value)
                    in zip(schema.attributes, s.assignment))
            for s in spec.suspects
        ]

    def test_commons_roundtrip(self):
        manifest = gen_dataset("commons", seed=4)
        obj, decoded = self.roundtrip(manifest)
        assert self.games(decoded) == self.games(manifest)
        assert sorted(obj) == ["env", "test", "train", "validation"]
        assert obj["train"] == manifest.train

    def test_default_manifest_is_small(self):
        text = json.dumps(gen_dataset("whodunit", seed=0).to_json_obj(), indent=2)
        assert len(text.encode()) <= 250_000

    @pytest.mark.parametrize(
        "edit, attribute",
        [
            (lambda code: code[:-1], "watch"),  # too short: the last digit is missing
            (lambda code: code[:3], "hobby"),
            (lambda code: code + "0", "watch"),  # too long: past the last attribute
            (lambda code: "x" + code[1:], "hat"),  # not a digit
            (lambda code: code[:6] + "\u0661" + code[7:], "eye_color"),  # a non-ASCII digit
            (lambda code: code[:1] + "2" + code[2:], "mood"),  # two values: digits 0-1
        ],
    )
    def test_bad_suspect_string_names_the_attribute(self, edit, attribute):
        spec = generate_game("asymmetric", 4, 31, seed=9)
        obj = spec.to_json_obj()
        obj["suspects"][1] = edit(obj["suspects"][1])
        with pytest.raises(ValueError, match=repr(attribute)):
            GameSpec.from_json_obj(obj, spec.schema)

    def test_mixed_schemas_rejected(self):
        manifest = SplitManifest(
            env="whodunit",
            train=[generate_game("asymmetric", 4, 31, seed=1)],
            validation=[generate_game("symmetric", 4, 31, seed=1)],
            test=[],
        )
        with pytest.raises(ValueError, match="one attribute schema"):
            manifest.to_json_obj()

    @staticmethod
    def wide_manifest(n_values: int) -> SplitManifest:
        schema = AttributeSchema.of(
            (("mood", ("happy", "sad")), ("hat", tuple(f"h{i}" for i in range(n_values))))
        )
        suspects = tuple(
            SuspectProfile(i + 1, (schema.pairs[0][i % 2], schema.pairs[1][i]))
            for i in range(n_values)
        )
        spec = GameSpec(schema, suspects, 2, 31, Variant.ASYMMETRIC, seed=0)
        return SplitManifest(env="whodunit", train=[spec], validation=[], test=[])

    def test_ten_values_fit_a_digit(self):
        manifest = self.wide_manifest(10)
        obj, decoded = self.roundtrip(manifest)
        assert self.games(decoded) == self.games(manifest)
        assert obj["train"][0]["suspects"][-1] == "19"

    def test_more_than_ten_values_rejected(self):
        with pytest.raises(ValueError, match="'hat' has 11 values"):
            self.wide_manifest(11).to_json_obj()

    def test_old_format_asks_to_regenerate(self):
        spec = generate_game("asymmetric", 4, 31, seed=1)
        old_game = {
            "variant": "asymmetric",
            "schema": [[name, list(values)] for name, values in spec.schema.attributes],
            "suspects": [{"id": s.suspect_id, "assignment": s.as_dict()} for s in spec.suspects],
            "culprit_id": spec.culprit_id,
            "turn_limit": 31,
            "seed": 1,
        }
        old = {"env": "whodunit", "train": [old_game], "validation": [], "test": []}
        with pytest.raises(ValueError, match="regenerate"):
            SplitManifest.from_json_obj(old)

class TestChannel:
    def test_append_preserves_order(self):
        ch = CommunicationChannel()
        ch.append(*msg(1))
        ch.append(*msg(2))
        assert rendered(ch) == ["m1", "m2"]
        assert ch.checkpoints == ()

    def test_irreversible_append_places_checkpoint_at_tail(self):
        ch = CommunicationChannel()
        ch.append(*msg(1))
        ch.append(*msg(2, MessageKind.ACCUSE), irreversible=True)
        assert ch.checkpoints == (2,)

    def test_rollback_without_checkpoint_empties(self):
        ch = CommunicationChannel()
        for i in range(5):
            ch.append(*msg(i))
        ch.rollback_to_checkpoint()
        assert len(ch.events()) == 0

    def test_rollback_to_checkpoint_keeps_prefix(self):
        ch = CommunicationChannel()
        for i in range(3):
            ch.append(*msg(i), irreversible=i == 2)
        ch.append(*msg(3))
        ch.append(*msg(4))
        ch.rollback_to_checkpoint()
        assert rendered(ch) == ["m0", "m1", "m2"]

    def test_prefix_immutable_under_random_ops(self):
        # Property: for any sequence of appends and rollbacks, the prefix up
        # to the last checkpoint never changes.
        rng = random.Random(2024)
        for _ in range(200):
            ch = CommunicationChannel()
            counter = 0
            for _ in range(rng.randint(1, 40)):
                frozen = rendered(ch)[: ch.last_checkpoint]
                op = rng.random()
                if op < 0.5:
                    ch.append(*msg(counter), irreversible=rng.random() < 0.2)
                    counter += 1
                else:
                    ch.rollback_to_checkpoint()
                assert rendered(ch)[: len(frozen)] == frozen
                assert list(ch.checkpoints) == sorted(set(ch.checkpoints))
                assert all(c <= len(ch.events()) for c in ch.checkpoints)

    def test_rendered_and_events_follow_the_messages(self):
        """The lines and events the channel keeps equal a plain list model
        of the same appends and rollbacks."""
        rng = random.Random(25)
        for _ in range(200):
            ch = CommunicationChannel()
            model, checkpoint = [], 0  # (kind, fields) of each kept message
            for counter in range(rng.randint(1, 40)):
                if rng.random() < 0.6:
                    kind, fields = msg(counter)
                    irreversible = rng.random() < 0.1
                    ch.append(kind, fields, irreversible=irreversible)
                    model.append((kind, fields))
                    checkpoint = len(model) if irreversible else checkpoint
                else:
                    ch.rollback_to_checkpoint()
                    del model[checkpoint:]
                assert rendered(ch) == [fields["text"] for _, fields in model]
                assert ch.events() == tuple(model)
                assert all(e[1] is m[1] for e, m in zip(ch.events(), model))


class TestTrajectorySerialization:
    def test_jsonl_roundtrip_shape(self):
        spec = generate_game("asymmetric", 4, 31, seed=5)
        traj = Trajectory(game=spec)
        traj.turns.append(
            TurnRecord(
                turn_index=1,
                dialog_index=1,
                agent_id="Beth",
                role="accuser",
                action={"kind": "accuse", "target": 2},
                features={"entropy": 0.1, "varentropy": 0.0, "kurtosis": 0.0, "turn": 1},
            )
        )
        traj.outcome = Outcome.WRONG_ACCUSATION
        traj.accused_id = 2
        games = parse_trajectory_jsonl(traj.to_jsonl())
        assert len(games) == 1
        assert games[0]["outcome"] == "wrong-accusation"
        assert games[0]["accused"] == 2
        assert games[0]["length"] == 1
        assert games[0]["turns"][0]["agent"] == "Beth"


def reference_games(text: str) -> list[dict]:
    """A log read line by line with ``json.loads``, refused as the reader refuses it."""
    games, turns = [], []
    for n, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"line {n}: {line!r} is not JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {n}: {obj!r} is not an object")
        if "outcome" in obj:
            games.append({"turns": turns, **obj})
            turns = []
        else:
            turns.append(obj)
    return games


def outcome(read, text: str):
    """The games ``read`` makes of ``text``, or the message it refuses it with."""
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


# Every line boundary str.splitlines knows, by its name.
SEPARATORS = {"LF": "\n", "CR": "\r", "CRLF": "\r\n", "VT": "\v", "FF": "\f", "FS": "\x1c",
              "GS": "\x1d", "RS": "\x1e", "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}
TURN = '{"action": {"kind": "skip"}, "agent": "Alex", "role": "accuser", "turn": 1}'
SUMMARY = '{"accused": null, "length": 1, "outcome": "timeout"}'


class TestTrajectoryReader:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_a_golden_log_reads_as_line_by_line_json_with_each_string_once(self, name, tmp_path):
        digests(name, tmp_path)
        text = (tmp_path / "trajectories.jsonl").read_text()
        games = parse_trajectory_jsonl(text)
        assert games == reference_games(text) and games
        first: dict[str, str] = {}  # each key and string value of an object, by its first copy

        def shared(obj):
            for key, value in obj.items():
                assert first.setdefault(key, key) is key
                if type(value) is str:
                    assert first.setdefault(value, value) is value
                elif isinstance(value, dict):
                    shared(value)

        for game in games:
            for turn in game["turns"]:
                shared(turn)
            shared({k: v for k, v in game.items() if k != "turns"})

    @pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS.keys())
    def test_every_line_boundary_reads_as_line_by_line_json(self, sep):
        kept = sep.join([TURN, "", " \t ", SUMMARY, " \x1f ", TURN, "  " + SUMMARY])
        games = parse_trajectory_jsonl(kept)
        assert games == reference_games(kept) and len(games) == 2
        for bad, message in [
            ("nope", "line 4: 'nope' is not JSON (Expecting value: line 1 column 1 (char 0))"),
            ("[5]", "line 4: [5] is not an object"),
            ("\ufeff{}", "line 4: '\\ufeff{}' is not JSON (Unexpected UTF-8 BOM (decode using "
                         "utf-8-sig): line 1 column 1 (char 0))"),
        ]:
            text = sep.join([TURN, "", " \x1f ", f" {bad} ", SUMMARY])
            assert outcome(parse_trajectory_jsonl, text) == outcome(reference_games, text)
            assert outcome(parse_trajectory_jsonl, text) == message

    def test_a_parsed_log_holds_each_string_once(self, tmp_path):
        """A seeded symmetric rogue log of over 4,000 turn lines reads back
        within 1,100 traced bytes per line at the peak: its strings are
        shared and each line string is let go once it is decoded."""
        config = ExperimentConfig.from_json_obj({
            "variant": "symmetric", "n_agents": 4, "facts_per_agent": 3,
            "agents": {"player": {"type": "rogue", "epsilon": 0.1}},
        })
        manifest = gen_dataset("whodunit", sizes=(0, 0, 600), seed=0, variant="symmetric")
        run_experiment(config, manifest, split="test", output_dir=tmp_path)
        text = (tmp_path / "trajectories.jsonl").read_text()
        tracemalloc.start()
        try:
            games = parse_trajectory_jsonl(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(game["turns"]) for game in games) >= 4000
        assert peak / len(text.splitlines()) < 1100


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "game", 0) == derive_seed(1, "game", 0)
    assert derive_seed(1, "game", 0) != derive_seed(1, "game", 1)
    assert derive_seed(1, "game", 0) != derive_seed(2, "game", 0)
    assert 0 <= derive_seed(3, "x") < 2 ** 64
