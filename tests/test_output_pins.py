"""Pins of the toy `ablate` outputs: the SHA-256 of each of the 11 `--out`
files and of stdout, under three flag sets; of the keys of the reply
records it writes to the cache, and of the image digests its memo there
holds; of the toy dataset's JSON files; and of the resolved schema that
`ground` writes for the toy maze image, hierarchical and sequential.

A change that must leave outputs byte-identical keeps every pin. A change
that alters outputs on purpose updates the pins here and says why in
CHANGES.md. The reply keys are the request keys: a change that moves them
orphans every cache that a live run has paid for.
"""

from __future__ import annotations

import hashlib

import pytest

from schemaground import cli
from schemaground.extraction import load_canonical_schema
from schemaground.gateway import read_json
from schemaground.qa import AnswerMode

from helpers import cache_records, memo_digests, settle_images

OUT_TOKEN = "<OUT>"

PINS = {
    (): {
        "baseline.predictions.jsonl":
            "11c34b1d7f447dcd2ad9c944adf62079b304fb498a5db9951f674ac0c8194d9f",
        "baseline.report.json":
            "0bd155ba9c7949fe18fd5f0898bed6a17640ad394d3ddb198ac4e5491a3ab779",
        "full_dsg.predictions.jsonl":
            "5464f4615fca4f07ab013fe41addf7a582bd72846039aa7acc6ddd209f3e8021",
        "full_dsg.report.json":
            "b0b1976f55f1260b4f1715932485a4514cdd86ed4c315b0b524b039f38a75fee",
        "grounding_hierarchical.predictions.jsonl":
            "e6626501288d94237ebffbc5e1460ad788d506cf2e9982dfc0b07cdb3ea0a7ce",
        "grounding_hierarchical.report.json":
            "b0b1976f55f1260b4f1715932485a4514cdd86ed4c315b0b524b039f38a75fee",
        "grounding_sequential.predictions.jsonl":
            "cc8ee081f3c017bc51241f48928279f0855e66e2cd3bd78573330731e6021e17",
        "grounding_sequential.report.json":
            "30fb0bec349e2078de9b7a4cb29efe88f199686eeab98642e1f62c86cfd1ae98",
        "schema_only.predictions.jsonl":
            "f6bcd738eb699f42e714ca09d5d57ba3e9e4b868eafc6ba4de17043bf0a65561",
        "schema_only.report.json":
            "9659794fbf71a9a498a97734bc2e3f842f628e096e4e401a92cccaa6233eaea1",
        "summary.json":
            "eb5c4b1070e84e1ee6b5f7d851d09f3025a5d648cfc6cde1f74f8ef51a4314a7",
        "<stdout>":
            "f0d6acc7d053c8479a7c667f55f3a249afb1b84d264d492ec0bc6eb91bcd6c6d",
    },
    ("--runs", "3", "--seed-hint", "7", "--metric", "graded", "--human-row"): {
        "baseline.predictions.jsonl":
            "ddd7b84a94b584f588aa53e14e8c9266dbf6b59b2c89cee60dfc3bd9906e1e93",
        "baseline.report.json":
            "d79509f3fdeedf86b2feb937ab2c261b16f22eceeed8c18e9db60d09823bb632",
        "full_dsg.predictions.jsonl":
            "ff9dea9fe2fb5abae1c7c4a6427ed4ed491d3d132a7a366ba4084fcd2c095360",
        "full_dsg.report.json":
            "a180ad652579ffc724d3c3847980425af485c4e3af77744a2b2d7158869f262e",
        "grounding_hierarchical.predictions.jsonl":
            "5df763b613e4e36604848128a954e331cabac7dd6af396202615e5d91a9f96c6",
        "grounding_hierarchical.report.json":
            "a180ad652579ffc724d3c3847980425af485c4e3af77744a2b2d7158869f262e",
        "grounding_sequential.predictions.jsonl":
            "b810df8e04e402e42afa1b2274918cd9d2991ef94a1616c1654ee4c1717933fd",
        "grounding_sequential.report.json":
            "02825b1d9598709c582cbe56a0ebdb544b6e4821d3aa0cc88c4360223027a951",
        "schema_only.predictions.jsonl":
            "78d427517f4294a16611d961b7f2952f46968623f7229e85cbff5ce8ac5abf1b",
        "schema_only.report.json":
            "36765422e7dfbd59426e56d7d516b51ce8432b09fe9bb6606a05fd17e88406d2",
        "summary.json":
            "0fcc97eacfc699c213567e38a936276ede43c2b3568f1e3948ecd4fd3e2930ad",
        "<stdout>":
            "12a2b48bc6d354b3f22c4d0d2cf6315b501e13572242ec5b42f7c5a856276508",
    },
    ("--free-response", "--metric", "graded"): {
        "baseline.predictions.jsonl":
            "3567f7e14df88a163a0dcaaa203f20601092fcff7a32e34ba2196db699efc69d",
        "baseline.report.json":
            "499fe64158a7818bde266020abb46c721cd5d254044d12d97812f483b29ed4ae",
        "full_dsg.predictions.jsonl":
            "976f364ff99bd68ca187c5a601f8b96d625dfea27c75cf5a4771f8f23de941e5",
        "full_dsg.report.json":
            "2b3f408fb8fcc6ff72143d08aad2f86e4516b167c81c661b8ce2ce096748eace",
        "grounding_hierarchical.predictions.jsonl":
            "111518d13856d873badd43b6cbc13d4e2f8b18e7de043b8e826288e8693727d4",
        "grounding_hierarchical.report.json":
            "2b3f408fb8fcc6ff72143d08aad2f86e4516b167c81c661b8ce2ce096748eace",
        "grounding_sequential.predictions.jsonl":
            "e7720e75396711e25e6d4db27331ee2de27252991a15524167344fb87528e5ce",
        "grounding_sequential.report.json":
            "7c992166fc55a5a71f9de7e02eb8dc9e2adc8b6e6b59d9edf51633f9bcbaca77",
        "schema_only.predictions.jsonl":
            "e0b453b7d601094d2a7bc7b24aea271974c979e3174f55043b92fe28fed8be95",
        "schema_only.report.json":
            "e56e976c002d41a096027be95ade43cd1207c087bf57d76e14df0e171ad17d04",
        "summary.json":
            "7a31a0c24ab9929a9598f65bde317749830a3698f210e12d8efb4c38a548c740",
        "<stdout>":
            "818a7e614a317ec30279a71c9fada61cae03b9d47ffc130ee30429aa831c5d9a",
    },
}


# SHA-256 of the sorted names `<key>.json` of the cache's reply records, joined
# by newlines: the file names of the one-file-per-reply layout that the cache
# kept before its logs, so the pin still holds the same 72 keys.
CACHE_NAMES_PIN = "6e2697e1fa67ae865053a5a3c8432af796651daa854c33e74925ff51137814c1"
# SHA-256 of the sorted values of the image-digest memo, joined by newlines:
# the SHA-256 of each of the 4 toy image files.
MEMO_VALUES_PIN = "26c0d8241f4ddb5ab9e7573ebb95abfed05b512272903eeb05ff483f40d2ad21"

FIXTURE_FILE_PIN = "05d4cdc65616e4c9a3a897864f94ef2ecf51d6b29f9c0de024164ea4d420d668"

# The toy dataset's other two JSON files.
TOY_FILE_PINS = {
    "manifest.json": "4121aa5f43e594726d82575dc985bb5e5d80688723f43891fbcf586ec52855b8",
    "backend.json": "d7e1f94fc1130752d2ad4c57c1d8d8a83538a04637ed8a2d7c977357cd67131e",
}

RESOLVED_PINS = {
    (): "d47565ad323e9e9843392fa70c0923e5026fc4959c2f1f052ccd9b00a076d2f9",
    ("--sequential",): "1ca317eb476dbf4f675770107e78bce08be5b93345c4f63e897ebf30d584777a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ablate_digests(toy, out, flags, capsys) -> dict[str, str]:
    code = cli.main([
        "ablate",
        "--manifest", str(toy.manifest_path),
        "--backend-config", str(toy.backend_config_path),
        "--out", str(out),
        *flags,
    ])
    assert code == 0
    stdout = capsys.readouterr().out.replace(str(out), OUT_TOKEN)
    digests = {path.name: _sha256(path.read_bytes()) for path in sorted(out.iterdir())}
    digests["<stdout>"] = _sha256(stdout.encode("utf-8"))
    return digests


@pytest.mark.parametrize("flags", list(PINS), ids=lambda flags: " ".join(flags) or "defaults")
def test_toy_ablate_outputs_are_pinned(toy, tmp_path, capsys, flags):
    digests = _ablate_digests(toy, tmp_path / "out", flags, capsys)
    assert len(digests) == 12  # 11 files and stdout
    assert digests == PINS[flags]


# summary.json holds each mode's report as the mode's own report file does.
@pytest.mark.parametrize("flags", list(PINS), ids=lambda flags: " ".join(flags) or "defaults")
def test_summary_holds_each_report_file(toy, tmp_path, capsys, flags):
    out = tmp_path / "out"
    _ablate_digests(toy, out, flags, capsys)
    modes = read_json(out / "summary.json")["modes"]
    assert list(modes) == sorted(mode.value for mode in AnswerMode)
    for mode in modes:
        assert read_json(out / f"{mode}.report.json") == modes[mode]


def test_toy_ablate_cache_file_names_are_pinned(toy, tmp_path, capsys, monkeypatch):
    # Settled images are recorded in the memo, so the reply names are pinned
    # beside it, whatever the age of the toy images.
    settle_images(monkeypatch)
    code = cli.main([
        "ablate",
        "--manifest", str(toy.manifest_path),
        "--backend-config", str(toy.backend_config_path),
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    names = sorted(f"{record['key']}.json" for record in cache_records(tmp_path / "cache", "key"))
    assert len(names) == 72
    assert _sha256("\n".join(names).encode("utf-8")) == CACHE_NAMES_PIN
    values = memo_digests(tmp_path / "cache")
    assert len(values) == 4
    assert _sha256("\n".join(values).encode("utf-8")) == MEMO_VALUES_PIN


def test_toy_fixture_file_is_pinned(toy):
    assert _sha256(toy.fixture_path.read_bytes()) == FIXTURE_FILE_PIN


@pytest.mark.parametrize("name", list(TOY_FILE_PINS))
def test_toy_dataset_files_are_pinned(toy, name):
    assert _sha256((toy.root / name).read_bytes()) == TOY_FILE_PINS[name]


@pytest.mark.parametrize(
    "flags", list(RESOLVED_PINS), ids=lambda flags: " ".join(flags) or "hierarchical"
)
def test_ground_resolved_schema_is_pinned(toy, tmp_path, capsys, flags):
    schema = tmp_path / "maze.schema"
    schema.write_text(load_canonical_schema("maze").text, encoding="utf-8")
    out = tmp_path / "resolved.json"
    code = cli.main([
        "ground",
        "--schema", str(schema),
        "--image", str(toy.image_paths["maze"]),
        "--backend-config", str(toy.backend_config_path),
        "--out", str(out),
        *flags,
    ])
    assert code == 0
    assert _sha256(out.read_bytes()) == RESOLVED_PINS[flags]
