"""A whole `ablate` as a function of the schema's shape.

Drawn schemas of 1-4 components, written to a `--schema-dir`, are ablated
over 1-3 images with 1-3 questions each, against the echo backend, whose
reply names the query it answers. The backend calls follow from the shape;
each `full_dsg` request carries the hierarchical walk as text-only prior
turns; the files written do not depend on `--concurrency`; and renaming
instance ids renames the prediction lines and changes nothing else.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemaground import cli
from schemaground.dsl import ComponentNode, SchemaProgram
from schemaground.extraction import CONCEPT_CATEGORIES
from schemaground.gateway import ModelGateway, cache_key
from schemaground.toydata import tiny_png

from helpers import EchoBackend, PassThrough, echo_reply, program_specs


def _write_inputs(root, concept, nodes, questions_per_image) -> None:
    schema = SchemaProgram(
        concept, tuple(ComponentNode(cid, concept, tuple(deps)) for cid, deps in nodes)
    )
    (root / "schemas").mkdir()
    (root / "schemas" / f"{concept}.schema").write_text(schema.text)
    instances = []
    for image_index, questions in enumerate(questions_per_image):
        (root / f"image-{image_index}.png").write_bytes(tiny_png((image_index, 9, 9)))
        for question in range(questions):
            instances.append({
                "id": f"i{image_index}-q{question}",
                "concept": concept,
                "category": CONCEPT_CATEGORIES.get(concept, "social"),
                "image": f"image-{image_index}.png",
                "question": f"Question {question}?",
                "question_type": "binary",
                "options": ["yes", "no"],
                "annotator_answers": ["yes"] * 5,
                "modal_answer": "yes",
            })
    _write_manifest(root / "manifest.json", instances)


def _write_manifest(path, instances) -> None:
    path.write_text(json.dumps({"subset": True, "instances": instances}))


def _ablate(root, manifest, out, concurrency) -> list:
    """Run `ablate` on the echo backend; the requests it sent."""
    gateway = ModelGateway(EchoBackend())
    requests = PassThrough(gateway).calls
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_gateway", lambda args: gateway)
        code = cli.main([
            "ablate",
            "--manifest", str(root / manifest),
            "--schema-dir", str(root / "schemas"),
            "--backend-config", str(root / "unused-backend.json"),
            "--concurrency", str(concurrency),
            "--out", str(root / out),
        ])
    assert code == 0
    return requests


def _files(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@settings(max_examples=30, deadline=None)
@given(
    spec=program_specs(),
    questions_per_image=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)
@example(spec=("c", [("a", [])]), questions_per_image=[1])
@example(spec=("c", [("a", []), ("b", ["a"]), ("d", ["b", "a"])]), questions_per_image=[2, 1])
def test_an_ablate_follows_from_the_schema_shape(tmp_path_factory, spec, questions_per_image):
    concept, nodes = spec
    root = tmp_path_factory.mktemp("shape")
    _write_inputs(root, concept, nodes, questions_per_image)
    requests = _ablate(root, "manifest.json", "out-1", concurrency=1)

    # Calls from the shape: per image, n sequential grounding queries and one
    # hierarchical query per component with dependencies (the others ask
    # what a sequential query asks); per instance, one answer per mode, but
    # where no component has dependencies the two walks agree, and so do the
    # sequential and hierarchical answer requests.
    n = len(nodes)
    dependent = sum(1 for _, deps in nodes if deps)
    answers = sum(questions_per_image)
    answer_modes = 5 if dependent else 4
    assert len(requests) == answers * answer_modes + len(questions_per_image) * (n + dependent)
    assert len({cache_key("echo", request) for request in requests}) == len(requests)

    # Each full_dsg request: 2n text-only prior turns, each reply the echo of
    # the query before it, then the final message with the image.
    full_dsg = [request for request in requests if len(request.messages) > 1]
    assert len(full_dsg) == answers
    for request in full_dsg:
        *prior, final = request.messages
        assert len(prior) == 2 * n
        assert all(message.image is None for message in prior)
        for query, reply in zip(prior[::2], prior[1::2]):
            assert (query.role, reply.role) == ("user", "assistant")
            assert reply.text == echo_reply(query.text)
        assert final.role == "user" and final.image is not None

    expected = _files(root / "out-1")
    assert len(expected) == 11
    assert len(_ablate(root, "manifest.json", "out-4", concurrency=4)) == len(requests)
    assert _files(root / "out-4") == expected

    # Renamed ids, reversed so that the sort order changes too.
    manifest = json.loads((root / "manifest.json").read_text())
    ids = [instance["id"] for instance in manifest["instances"]]
    renamed = {old: f"r{len(ids) - index}" for index, old in enumerate(ids)}
    for instance in manifest["instances"]:
        instance["id"] = renamed[instance["id"]]
    _write_manifest(root / "renamed.json", manifest["instances"])
    renamed_requests = _ablate(root, "renamed.json", "out-renamed", concurrency=4)
    assert Counter(cache_key("echo", r) for r in renamed_requests) == Counter(
        cache_key("echo", r) for r in requests
    )
    got = _files(root / "out-renamed")
    assert got.keys() == expected.keys()
    for name, data in expected.items():
        if not name.endswith(".predictions.jsonl"):
            assert got[name] == data, name
            continue
        lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        for line in lines:
            line["instance_id"] = renamed[line["instance_id"]]
        lines.sort(key=lambda line: (line["run_index"], line["instance_id"]))
        assert [json.loads(line) for line in got[name].decode("utf-8").splitlines()] == lines
