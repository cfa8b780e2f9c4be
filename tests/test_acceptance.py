"""Acceptance gate: one test per shipping criterion, each printing a single
PASS line (visible with -s or -rA) and enforcing its stated budget."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from schemaground.dsl import parse_schema, topological_order
from schemaground.evaluate import (
    DatasetManifest,
    exact_match_accuracy,
    graded_accuracy,
    load_manifest,
)
from schemaground.extraction import CONCEPT_CATEGORIES, load_canonical_schema
from schemaground.gateway import ImageRef, ModelGateway
from schemaground.grounding import ground_hierarchical, ground_sequential
from schemaground.qa import (
    AnswerMode,
    Prediction,
    VqaInstance,
    build_augmented_prompt,
)
from schemaground.runner import load_schemas, run_predictions
from schemaground.toydata import tiny_png

from helpers import (
    brute_force_topological_order,
    checkout_env,
    fixture_grounding_rules,
    instance_by_id,
    random_program_source,
    scripted_gateway,
)

EXPECTED_DEPS = {
    "maze": {"layout": (), "walls": (), "entry-exit": ("layout",)},
    "atom": {
        "nucleus": (),
        "electrons": (),
        "energy-levels": ("nucleus", "electrons"),
    },
}

LADDER_MODES = [
    AnswerMode.BASELINE,
    AnswerMode.SCHEMA_ONLY,
    AnswerMode.GROUNDING_SEQUENTIAL,
    AnswerMode.GROUNDING_HIERARCHICAL,
    AnswerMode.FULL_DSG,
]


def test_c1_fixture_schemas_parse_validate_roundtrip():
    started = time.perf_counter()
    for concept in CONCEPT_CATEGORIES:
        program = load_canonical_schema(concept)
        assert program.concept == concept
        assert 1 <= len(program.nodes) <= 4
        assert parse_schema(program.text) == program
        order = topological_order(program)
        positions = {cid: index for index, cid in enumerate(order)}
        for node in program.nodes:
            for dep in node.deps:
                assert positions[dep] < positions[node.id]
        if concept in EXPECTED_DEPS:
            assert {n.id: n.deps for n in program.nodes} == EXPECTED_DEPS[concept]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture suite took {elapsed:.3f}s"
    print(f"PASS: C1 twelve fixture schemas parse/validate/round-trip in {elapsed:.3f}s")


def test_c2_thousand_random_programs_obey_dag_laws():
    started = time.perf_counter()
    rng = random.Random(20260814)
    for _ in range(1000):
        source, concept, spec = random_program_source(rng)
        program = parse_schema(source)
        assert program.concept == concept
        assert [(n.id, set(n.deps)) for n in program.nodes] == [
            (cid, set(deps)) for cid, deps in spec
        ]
        order = topological_order(program)
        positions = {cid: index for index, cid in enumerate(order)}
        for node in program.nodes:
            for dep in node.deps:
                assert positions[dep] < positions[node.id]
        assert order == brute_force_topological_order(program)
        assert parse_schema(program.text) == program
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"1000-program sweep took {elapsed:.3f}s"
    print(f"PASS: C2 1000 random programs satisfy ordering laws and round-trip in {elapsed:.2f}s")


def test_c3_hierarchical_queries_contain_ancestor_descriptions_verbatim():
    image = ImageRef("image/png", data=tiny_png((50, 60, 70)))
    gateway = scripted_gateway(fixture_grounding_rules())
    checked_dependent = 0
    for concept in CONCEPT_CATEGORIES:
        schema = load_canonical_schema(concept)
        description_of = {
            node.id: f"{concept}--{node.id}--essence" for node in schema.nodes
        }
        hier = ground_hierarchical(schema, image, gateway)
        assert hier.descriptions == description_of
        hier_queries = dict(zip(hier.descriptions, (m.text for m in hier.transcript[::2])))
        for node in schema.nodes:
            query = hier_queries[node.id]
            for dep in node.deps:
                assert description_of[dep] in query
                checked_dependent += 1
            for other in schema.nodes:
                if other.id not in node.deps:
                    assert description_of[other.id] not in query
        seq = ground_sequential(schema, image, gateway)
        for query in (m.text for m in seq.transcript[::2]):
            for other_description in description_of.values():
                assert other_description not in query
    assert checked_dependent >= 12
    print(
        "PASS: C3 hierarchical queries embed every ancestor description verbatim "
        f"({checked_dependent} dependent edges over 12 schemas); sequential queries embed none"
    )


def test_c4_full_dsg_reproduces_the_maze_framing_sentence(toy, toy_manifest, toy_gateway):
    expected = (
        "Imagine that the image represents a maze, and the layout is rectangular, "
        "and the walls are coffee beans, and the entry and exit are coffee cups."
    )
    schema = load_canonical_schema("maze")
    instance = instance_by_id(toy_manifest, "maze-open")
    resolved = ground_hierarchical(schema, instance.image, toy_gateway)
    messages = build_augmented_prompt(
        instance, AnswerMode.FULL_DSG, schema=schema, resolved=resolved
    )
    assert messages[-1].text.split("\n")[0] == expected
    print("PASS: C4 full_dsg framing sentence matches the documented maze example byte-for-byte")


def _metric_image():
    return ImageRef("image/png", data=tiny_png((3, 3, 3)))


def _metric_instance(instance_id, annotators, modal, question_type="counting"):
    return VqaInstance(
        id=instance_id,
        concept="maze",
        category="strategic",
        image=_metric_image(),
        question="q?",
        question_type=question_type,
        annotator_answers=tuple(annotators),
        modal_answer=modal,
        options=("blue", "red"),
    )


def test_c5_metric_oracles_match_hand_computation():
    instances = [
        _metric_instance("k0", ["red"] * 5, "red"),
        _metric_instance("k2", ["blue", "blue", "red", "red", "red"], "red"),
        _metric_instance("k4", ["blue"] * 4 + ["red"], "blue"),
        _metric_instance("k5", ["blue"] * 5, "blue"),
    ]
    for index in range(6):
        reference = "blue" if index < 4 else "red"
        instances.append(
            _metric_instance(f"e{index}", [reference] * 5, reference, question_type="binary")
        )
    manifest = DatasetManifest(tuple(instances))
    assert len(manifest.instances) == 10
    predictions = [
        Prediction(instance.id, AnswerMode.BASELINE, "blue", "blue")
        for instance in manifest.instances
    ]

    graded = graded_accuracy(predictions, manifest)
    per_instance = {
        instance_id: graded_accuracy(
            [p for p in predictions if p.instance_id == instance_id],
            DatasetManifest((instance_by_id(manifest, instance_id),)),
        )["overall"]["mean"]
        for instance_id in ("k0", "k2", "k4", "k5")
    }
    assert per_instance["k0"] == pytest.approx(0.0, abs=1e-9)
    assert per_instance["k2"] == pytest.approx(0.4, abs=1e-9)
    assert per_instance["k4"] == pytest.approx(0.8, abs=1e-9)
    assert per_instance["k5"] == pytest.approx(1.0, abs=1e-9)
    assert graded["overall"]["mean"] == pytest.approx(0.62, abs=1e-9)

    exact = exact_match_accuracy(predictions, manifest)
    assert exact["overall"]["mean"] == pytest.approx(0.6, abs=1e-9)

    # Five runs over 20 instances, answering 12, 12, 14, 14 and 13 right.
    aggregate = DatasetManifest(
        tuple(_metric_instance(f"a{index}", ["blue"] * 5, "blue") for index in range(20))
    )

    def prediction(run, index, right):
        answer = "blue" if index < right else "red"
        return Prediction(f"a{index}", AnswerMode.BASELINE, answer, answer, run)

    merged = exact_match_accuracy(
        [
            prediction(run, index, right)
            for run, right in enumerate((12, 12, 14, 14, 13))
            for index in range(20)
        ],
        aggregate,
    )["overall"]
    assert merged["per_run"] == [0.6, 0.6, 0.7, 0.7, 0.65]
    assert merged["mean"] == pytest.approx(0.65, abs=1e-6)
    assert merged["std"] == pytest.approx(math.sqrt(0.002), abs=1e-6)
    assert round(merged["std"], 4) == 0.0447
    print(
        "PASS: C5 metric oracles — K/5 {0,2,4,5} -> {0.0,0.4,0.8,1.0}, exact 6/10, "
        "5-run aggregate 0.65 ± 0.0447"
    )


def _run_ablate(toy, out_dir, cache_dir):
    result = subprocess.run(
        [
            sys.executable, "-m", "schemaground.cli", "ablate",
            "--manifest", str(toy.manifest_path),
            "--backend-config", str(toy.backend_config_path),
            "--cache-dir", str(cache_dir),
            "--out", str(out_dir),
        ],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert result.returncode == 0, result.stderr
    return {
        path.name: path.read_bytes() for path in sorted(out_dir.iterdir()) if path.is_file()
    }


def test_c6_ablation_is_deterministic_and_prompt_monotone(toy, toy_manifest, toy_gateway, tmp_path):
    snapshots = [
        _run_ablate(toy, tmp_path / f"out{index}", tmp_path / f"cache{index}")
        for index in range(3)
    ]
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert len(snapshots[0]) == 11  # 5 predictions + 5 reports + summary

    def contained(block, text):
        return block in text or (block.endswith(".") and block[:-1] in text)

    schemas = {concept: load_canonical_schema(concept) for concept in toy_manifest.concepts}
    resolved_for = {}
    for concept, schema in schemas.items():
        image = ImageRef.from_file(toy.image_paths[concept])
        resolved_for[concept] = {
            AnswerMode.GROUNDING_SEQUENTIAL: ground_sequential(schema, image, toy_gateway),
            AnswerMode.GROUNDING_HIERARCHICAL: ground_hierarchical(schema, image, toy_gateway),
        }
        resolved_for[concept][AnswerMode.FULL_DSG] = resolved_for[concept][
            AnswerMode.GROUNDING_HIERARCHICAL
        ]
    checked_pairs = 0
    for instance in toy_manifest.instances:
        # The lines of each mode's final prompt: its blocks, with the schema
        # text split into its lines.
        blocks_by_mode = {
            mode: build_augmented_prompt(
                instance,
                mode,
                schema=schemas[instance.concept],
                resolved=resolved_for[instance.concept].get(mode),
            )[-1].text.split("\n")
            for mode in LADDER_MODES
        }
        for earlier, later in ((LADDER_MODES[0], LADDER_MODES[1]),):
            assert set(blocks_by_mode[earlier]) <= set(blocks_by_mode[later])
            checked_pairs += 1
        joined_schema_only = "\n".join(blocks_by_mode[AnswerMode.SCHEMA_ONLY])
        for grounded in LADDER_MODES[2:]:
            joined = "\n".join(blocks_by_mode[grounded])
            assert all(
                contained(block, joined) for block in blocks_by_mode[AnswerMode.BASELINE]
            )
            assert all(
                contained(block, joined)
                for block in blocks_by_mode[AnswerMode.SCHEMA_ONLY]
            )
            checked_pairs += 1
        assert joined_schema_only  # schema text present in every non-baseline mode
    assert checked_pairs == 12 * 4
    means = {
        mode.value: json.loads(snapshots[0][f"{mode.value}.report.json"])["overall"]["mean"]
        for mode in LADDER_MODES
    }
    ordered = [means[mode.value] for mode in LADDER_MODES]
    assert ordered == sorted(ordered)
    print(
        "PASS: C6 three ablate runs byte-identical; prompt content monotone across the "
        f"five-mode grid for all 12 instances; accuracy ladder {ordered}"
    )


LIVE_BASE_URL = os.environ.get("SCHEMAGROUND_LIVE_BASE_URL")
LIVE_MODEL = os.environ.get("SCHEMAGROUND_LIVE_MODEL")


@pytest.mark.skipif(
    not (LIVE_BASE_URL and LIVE_MODEL),
    reason="live smoke needs SCHEMAGROUND_LIVE_BASE_URL and SCHEMAGROUND_LIVE_MODEL",
)
def test_c7_live_five_instance_smoke(toy, tmp_path):
    payload = json.loads(toy.manifest_path.read_text())
    payload["instances"] = payload["instances"][:5]
    manifest_path = tmp_path / "live-manifest.json"
    manifest_path.write_text(json.dumps(payload))
    config = {
        "backend_id": "live-smoke",
        "kind": "http",
        "model_id": LIVE_MODEL,
        "base_url": LIVE_BASE_URL,
    }
    if os.environ.get("SCHEMAGROUND_LIVE_API_KEY"):
        config["api_key_env"] = "SCHEMAGROUND_LIVE_API_KEY"
    config_path = tmp_path / "live-backend.json"
    config_path.write_text(json.dumps(config))

    cache_dir = tmp_path / "cache"
    manifest = load_manifest(manifest_path)
    started = time.perf_counter()
    gateway = ModelGateway.from_config(config_path, cache_dir=cache_dir)
    predictions = run_predictions(
        manifest, [AnswerMode.FULL_DSG], gateway, load_schemas(manifest)
    )[AnswerMode.FULL_DSG]
    report = exact_match_accuracy(predictions, manifest)
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0, f"live smoke took {elapsed:.1f}s"
    assert len(predictions) == 5
    assert report["overall"]["count"] == 5

    cached_files = len(list(cache_dir.glob("*.json")))
    assert cached_files > 0
    gateway2 = ModelGateway.from_config(config_path, cache_dir=cache_dir)
    run_predictions(manifest, [AnswerMode.FULL_DSG], gateway2, load_schemas(manifest))
    assert len(list(cache_dir.glob("*.json"))) == cached_files
    print(f"PASS: C7 live 5-instance smoke finished in {elapsed:.1f}s with all responses cached")
