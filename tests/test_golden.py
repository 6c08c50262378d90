"""Golden replay: a (config, manifest, seed) triple writes the same bytes.

The sha256 digests of trajectories.jsonl and report.json are pinned for
small fixed configs that need no fitted model, so a refactor that changes a
single byte of either file, or the order of any random draw, fails here.
The JSON of every ranked monitor fitted on a small rogue-accuser corpus, and
the manifest JSON ``gen-dataset`` writes for each whodunit variant, are
pinned the same way.
The determinism tests in test_harness.py only compare two runs of the same
code; these digests compare against earlier code.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from roguewatch.core import parse_trajectory_jsonl
from roguewatch.harness import (
    ExperimentConfig,
    gen_dataset,
    records_from_games,
    run_experiment,
    run_metrics,
)
from roguewatch.monitor import grid_search_ranked

ROGUE = {"type": "rogue", "epsilon": 0.3}
MIXED_ROGUE = {
    "type": "rogue",
    "epsilon": 0.3,
    "behaviors": {
        "hallucinate-fact": 0.4,
        "wrong-accusation": 0.2,
        "repeat-query": 0.2,
        "drop-known-fact": 0.2,
    },
}


def asymmetric_manifest():
    return gen_dataset("whodunit", sizes=(0, 0, 12), seed=5, n_suspects=6)


def symmetric_manifest():
    return gen_dataset("whodunit", sizes=(0, 0, 8), seed=5, variant="symmetric")


def commons_manifest():
    return gen_dataset("commons", seed=2)


# name -> (manifest factory, split, config, trajectories sha256, report sha256)
GOLDEN = {
    "scripted-pair": (
        asymmetric_manifest,
        "test",
        {"agents": {}, "repetitions": 2},
        "85f320096b5257cf6f9ac8626e522f6324cb68c1155b03ad8ee2c48eb75dfbc4",
        "4a5cc167fceb4c780bf338b8175c5f79ac4611b952bdbd42fbf8a2cefd45ff33",
    ),
    "rogue-accuser": (
        asymmetric_manifest,
        "test",
        {"agents": {"accuser": MIXED_ROGUE}, "base_seed": 3},
        "c0e8167f2f39d2246d0e36871f104cee0ee885ef622bdbe7a6ce83f523afcc3f",
        "91a720d2aa63ae419b937886c9701be1025950c887423683a5859320190f143e",
    ),
    "random-full-reset": (
        asymmetric_manifest,
        "test",
        {
            "agents": {"accuser": ROGUE},
            "monitor": {"source": "random", "p": 0.2},
            "intervention": {"kind": "full-reset", "cap": 1},
            "repetitions": 2,
        },
        "81c4f185653bd745932f85ba356a73e81e266a2a1e6915c5287990b67a2c5d94",
        "341c6c7499d24b062333ddc6d14399aee267bc5027a40020102636416bd3a099",
    ),
    "random-resample": (
        asymmetric_manifest,
        "test",
        {
            "agents": {
                "accuser": ROGUE,
                "intel": {"type": "scripted", "broad_for_specific": False},
            },
            "monitor": {"source": "random", "p": 0.3},
            "intervention": {"kind": "resample", "cap": 2},
            "repetitions": 2,
        },
        "0a0b240527e7a567475cd75d1dc3ef082e5d8d6b95e76761f549ed1fc7ef884c",
        "a345115c83b3e66c0c571a9134c7ccff8b730049a50e28bba57ad24de37589e9",
    ),
    "symmetric-random": (
        symmetric_manifest,
        "test",
        {
            "variant": "symmetric",
            "agents": {"player": {"type": "rogue", "epsilon": 0.1}},
            "monitor": {"source": "random", "p": 0.1},
            "intervention": {"kind": "full-reset", "cap": 1},
            "parallelism": 2,
        },
        "e9d8025600def764e25625fdfb415129104b10ce93b931ab54919a386309d389",
        "0e38ed0124ca5d448aa247b2f83c273f5527abee30b7825af5ea58a3a86ac5b0",
    ),
    "commons-round-reset": (
        commons_manifest,
        "test",
        {
            "env": "commons",
            "monitor": {"source": "random", "p": 0.15},
            "intervention": {"kind": "round-reset", "cap": 2},
            "commons_policies": ["sustainable", "greedy", "sustainable", "sustainable"],
        },
        "2c44e101e6232128a908f252ae9e536a7e99f2a2ac1dcbd990b1d16856d7698f",
        "bf69abba6fe0e38ab9009c590525c8102c1400de19dba6737c5f6069b3c7fb91",
    ),
}


def digests(name: str, out_dir) -> tuple[str, str]:
    manifest_factory, split, config_obj, _, _ = GOLDEN[name]
    config = ExperimentConfig.from_json_obj(config_obj)
    run_experiment(config, manifest_factory(), split=split, output_dir=out_dir)
    return tuple(
        hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
        for file in ("trajectories.jsonl", "report.json")
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(name, tmp_path):
    *_, trajectories_sha, report_sha = GOLDEN[name]
    assert digests(name, tmp_path) == (trajectories_sha, report_sha)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_metrics_recount_from_the_log(name, tmp_path):
    """Each repetition's metrics are those of the summary lines of its games,
    recounted from the written log to the same bits."""
    manifest_factory, split, config_obj, _, _ = GOLDEN[name]
    config = ExperimentConfig.from_json_obj(config_obj)
    manifest = manifest_factory()
    run_experiment(config, manifest, split=split, output_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    games = parse_trajectory_jsonl((tmp_path / "trajectories.jsonl").read_text())
    n = len(manifest.split(split))
    assert report["invalid"] == 0 and len(games) == n * config.repetitions
    for k, metrics in enumerate(report["repetitions"]):
        assert run_metrics(config.env, games[k * n : (k + 1) * n]) == metrics


# sha256 of the concatenated ``to_json()`` of all 35 ranked monitors. The
# fit and the tau search use no BLAS or LAPACK product or solve, so this
# holds at any BLAS thread count.
RANKED_GRID_SHA = "6350299d1e15788181966284e59299e7b7e273a36fdfb87011118ce526575054"


def test_golden_ranked_grid(tmp_path):
    manifest = gen_dataset("whodunit", sizes=(24, 12, 0), seed=5, n_suspects=6)
    config = ExperimentConfig.from_json_obj(
        {"agents": {"accuser": {"type": "rogue", "epsilon": 0.35}}, "base_seed": 3}
    )
    records = []
    for split in ("train", "validation"):
        run_experiment(config, manifest, split=split, output_dir=tmp_path / split)
        text = (tmp_path / split / "trajectories.jsonl").read_text()
        records.append(records_from_games(parse_trajectory_jsonl(text), "accuser"))
    ranked = grid_search_ranked(*records, role="accuser")
    assert len(ranked) == 35
    digest = hashlib.sha256("".join(m.to_json() for m in ranked).encode()).hexdigest()
    assert digest == RANKED_GRID_SHA


# sha256 of the manifest JSON ``roguewatch gen-dataset --seed 0`` writes with
# the default split sizes (210/90/180 games, 10 suspects), per variant, in the
# compact format: the schema once, each suspect one digit string.
MANIFEST_SHA = {
    "asymmetric": "4ccd88794648d11da4c01d5ade90533c7db3d39dee6cf6e7c96c6f8b2eec322a",
    "symmetric": "75961a815f314344b96390240084a69731c27f9aa84e8372fb985b468d5ddacd",
}


@pytest.mark.parametrize("variant", sorted(MANIFEST_SHA))
def test_golden_manifest(variant):
    manifest = gen_dataset("whodunit", seed=0, variant=variant)
    text = json.dumps(manifest.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_SHA[variant]
