"""Game data model: generation determinism, channel rollback, serialization."""

from __future__ import annotations

import json
import random

import pytest

from roguewatch.core import (
    ASYMMETRIC_ATTRIBUTE_COUNT,
    ATTRIBUTE_TABLE,
    AttributeSchema,
    CommunicationChannel,
    GameSpec,
    Message,
    MessageKind,
    Outcome,
    Trajectory,
    TurnRecord,
    Variant,
    derive_seed,
    generate_game,
    parse_trajectory_jsonl,
)
from roguewatch.errors import InfeasibleRequestError, RollbackPastCheckpointError
from roguewatch.harness import SplitManifest, gen_dataset


def msg(i: int, kind: MessageKind = MessageKind.DISCUSSION) -> Message:
    return Message(author="a", kind=kind, text=f"m{i}")


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
        assert GameSpec.from_json_obj(json.loads(json.dumps(spec.to_json_obj()))) == spec

    def test_out_of_schema_value_rejected(self):
        obj = generate_game("asymmetric", 5, 31, seed=3).to_json_obj()
        obj["suspects"][2]["assignment"]["eye_color"] = "violet"
        with pytest.raises(ValueError, match="eye_color"):
            GameSpec.from_json_obj(obj)


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


class TestChannel:
    def test_append_preserves_order(self):
        ch = CommunicationChannel()
        ch.append(msg(1))
        ch.append(msg(2))
        assert ch.rendered() == ["m1", "m2"]
        assert ch.checkpoints == ()

    def test_irreversible_append_places_checkpoint_at_tail(self):
        ch = CommunicationChannel()
        ch.append(msg(1))
        ch.append(msg(2, MessageKind.ACCUSE), irreversible=True)
        assert ch.checkpoints == (2,)

    def test_rollback_without_checkpoint_empties(self):
        ch = CommunicationChannel()
        for i in range(5):
            ch.append(msg(i))
        ch.rollback_to_checkpoint()
        assert len(ch) == 0

    def test_rollback_to_checkpoint_keeps_prefix(self):
        ch = CommunicationChannel()
        for i in range(3):
            ch.append(msg(i))
        ch.mark_checkpoint()
        ch.append(msg(3))
        ch.append(msg(4))
        ch.rollback_to_checkpoint()
        assert ch.rendered() == ["m0", "m1", "m2"]

    def test_drop_last_within_round(self):
        ch = CommunicationChannel()
        for i in range(3):
            ch.append(msg(i))
        ch.mark_checkpoint()
        ch.append(msg(3))
        ch.append(msg(4))
        ch.drop_last(2)
        assert len(ch) == 3

    def test_drop_last_past_checkpoint_rejected(self):
        ch = CommunicationChannel()
        ch.append(msg(0))
        ch.mark_checkpoint()
        ch.append(msg(1))
        with pytest.raises(RollbackPastCheckpointError):
            ch.drop_last(2)

    def test_prefix_immutable_under_random_ops(self):
        # Property: for any sequence of appends and rollbacks, the prefix up
        # to the last checkpoint never changes.
        rng = random.Random(2024)
        for _ in range(200):
            ch = CommunicationChannel()
            counter = 0
            for _ in range(rng.randint(1, 40)):
                frozen = ch.rendered()[: ch.last_checkpoint]
                op = rng.random()
                if op < 0.5:
                    ch.append(msg(counter), irreversible=rng.random() < 0.2)
                    counter += 1
                elif op < 0.75:
                    ch.rollback_to_checkpoint()
                else:
                    room = len(ch) - ch.last_checkpoint
                    k = rng.randint(0, room + 1)
                    try:
                        ch.drop_last(k)
                    except RollbackPastCheckpointError:
                        assert k > room
                assert ch.rendered()[: len(frozen)] == frozen
                assert list(ch.checkpoints) == sorted(set(ch.checkpoints))
                assert all(c <= len(ch) for c in ch.checkpoints)


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


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "game", 0) == derive_seed(1, "game", 0)
    assert derive_seed(1, "game", 0) != derive_seed(1, "game", 1)
    assert derive_seed(1, "game", 0) != derive_seed(2, "game", 0)
    assert 0 <= derive_seed(3, "x") < 2 ** 64
