"""Runner scheduling: every request issued exactly once per mode and run."""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from schemaground.dsl import render_schema
from schemaground.errors import FixtureMissError
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import ModelGateway
from schemaground.qa import AnswerMode
from schemaground.runner import load_schemas, run_predictions

from helpers import scripted_gateway


# Backend calls per mode on the 12-instance toy manifest, with the modes run
# in AnswerMode order on one gateway as `ablate` runs them. With a cache, the
# hierarchical and full_dsg modes reuse grounding replies of earlier modes.
@pytest.mark.parametrize(
    ("cached", "expected"),
    [(False, [12, 12, 24, 24, 24]), (True, [12, 12, 24, 12, 12])],
)
def test_backend_calls_per_mode_in_ablation_order(toy, toy_manifest, tmp_path, cached, expected):
    gateway = ModelGateway.from_config(
        toy.backend_config_path, cache_dir=tmp_path / "cache" if cached else None
    )
    calls = []
    complete = gateway.backend.complete
    gateway.backend.complete = lambda request: (calls.append(request), complete(request))[1]
    counts = []
    for mode in AnswerMode:
        before = len(calls)
        predictions = run_predictions(toy_manifest, mode, gateway)
        assert len(predictions) == len(toy_manifest.instances) == 12
        counts.append(len(calls) - before)
    assert counts == expected


# Every prompt byte the five modes send, pinned: the SHA-256 of the sorted
# per-request records (role, text and image count of each message). Image
# bytes do not enter it, so it moves only when prompt wording or turn
# structure does.
def test_prompt_fingerprint_of_the_five_modes(toy, toy_manifest):
    gateway = ModelGateway.from_config(toy.backend_config_path)
    records = []
    complete = gateway.backend.complete

    def record(request):
        records.append(
            json.dumps([[m.role, m.text, len(m.images)] for m in request.messages])
        )
        return complete(request)

    gateway.backend.complete = record
    for mode in AnswerMode:
        run_predictions(toy_manifest, mode, gateway)
    digest = hashlib.sha256("\n".join(sorted(records)).encode("utf-8")).hexdigest()
    assert (len(records), len(set(records))) == (96, 72)
    assert digest == "7853374eaaeb1a6bef6620f165f0333530ebbafcb22b813e21d6327ac05622db"


def test_more_workers_than_cores_answer_each_instance_once_per_run(toy, toy_manifest):
    gateway = ModelGateway.from_config(toy.backend_config_path)
    calls = []
    complete = gateway.backend.complete
    gateway.backend.complete = lambda request: (calls.append(request), complete(request))[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        predictions = run_predictions(
            toy_manifest, AnswerMode.FULL_DSG, gateway, runs=3, concurrency=8, seed_hint=5
        )
    finally:
        sys.setswitchinterval(interval)
    ids = sorted(instance.id for instance in toy_manifest.instances)
    assert [(p.run_index, p.instance_id) for p in predictions] == [
        (run, instance_id) for run in range(3) for instance_id in ids
    ]
    assert len(calls) == 3 * 24
    assert sorted(request.seed_hint for request in calls) == [5] * 24 + [6] * 24 + [7] * 24


def test_grounding_failure_propagates_from_the_pool(toy_manifest):
    gateway = scripted_gateway([])
    with pytest.raises(FixtureMissError, match="while grounding component"):
        run_predictions(toy_manifest, AnswerMode.FULL_DSG, gateway, runs=3, concurrency=2)


def test_schema_dir_override_replaces_only_its_concept(toy_manifest, tmp_path):
    (tmp_path / "maze.schema").write_text("gen(concept=maze) =\n    gen(walls | concept=maze)\n")
    schemas = load_schemas(toy_manifest, tmp_path)
    assert schemas["maze"].component_ids == ("walls",)
    for concept in ("atom", "cell", "solar-system"):
        assert render_schema(schemas[concept]) == render_schema(load_canonical_schema(concept))
