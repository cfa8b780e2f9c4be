"""Command-line entry point: extract | ground | answer | evaluate | ablate.

Stages compose through plain files (schema text, resolved-schema JSON,
prediction JSON-lines, report JSON), and every deliberate failure maps to a
distinct exit code via the error taxonomy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .dsl import parse_schema, render_schema
from .errors import BackendConfigError, MissingImageError, PipelineError, exit_code_for
from .evaluate import (
    exact_match_accuracy,
    format_report_table,
    graded_accuracy,
    human_leave_one_out,
    load_manifest,
    report_to_json,
)
from .extraction import extract_schema, load_canonical_schema
from .gateway import ImageRef, ModelGateway, json_text
from .grounding import ground_hierarchical, ground_sequential
from .qa import AnswerMode, write_predictions_jsonl
from .runner import load_schemas, run_predictions

MODE_CHOICES = [mode.value for mode in AnswerMode]
METRIC_CHOICES = ("exact", "graded")


def _at_least(kind, minimum):
    """An argparse type: parse with kind and reject values below minimum."""

    def parse(text: str):
        value = kind(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_positive_int = _at_least(int, 1)
_non_negative_int = _at_least(int, 0)
_non_negative_float = _at_least(float, 0.0)


def _concept(text: str) -> str:
    """An argparse type: a non-empty concept name."""
    if not text:
        raise argparse.ArgumentTypeError("must be non-empty")
    return text


def _file_text(text: str) -> str:
    """An argparse type: the UTF-8 contents of the named file."""
    try:
        return Path(text).read_text(encoding="utf-8")
    except (OSError, ValueError) as err:
        raise argparse.ArgumentTypeError(f"cannot read {text}: {err}") from err


def _image(text: str) -> ImageRef:
    """An argparse type: an image path whose extension gives its media type."""
    try:
        return ImageRef.from_file(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _output_dir(text: str) -> Path:
    """An argparse type: a directory path, made on first use if it does not
    exist, but never a path under or at an existing file."""
    path = Path(text)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return path


def _output_file(text: str) -> Path:
    """An argparse type: a file path, overwritten if it exists, that is not
    an existing directory and does not lie under an existing file."""
    path = Path(text)
    _output_dir(str(path.parent))
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{path} is an existing directory")
    return path


def _schema_dir(text: str) -> Path:
    """An argparse type: an existing directory."""
    path = Path(text)
    if not path.is_dir():
        raise argparse.ArgumentTypeError(f"{path} is not an existing directory")
    return path


def _add_backend_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--backend-config",
        type=Path,
        required=required,
        help="JSON backend description (kind, model_id, ...)",
    )
    parser.add_argument(
        "--cache-dir", type=_output_dir, default=None, help="response cache directory"
    )
    parser.add_argument("--temperature", type=_non_negative_float, default=0.0)
    parser.add_argument("--max-tokens", type=_positive_int, default=512)
    parser.add_argument("--seed-hint", type=int, default=None)


def _add_choice_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--multiple-choice",
        dest="multiple_choice",
        action="store_true",
        default=True,
        help="instances must carry options; replies resolve to one (default)",
    )
    group.add_argument(
        "--free-response",
        dest="multiple_choice",
        action="store_false",
        help="drop options; replies are scored as normalized text",
    )


def _gateway(args: argparse.Namespace) -> ModelGateway:
    return ModelGateway.from_config(
        args.backend_config,
        cache_dir=args.cache_dir,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )


def cmd_extract(args: argparse.Namespace) -> int:
    # The default --out names the concept, so argparse cannot type it: check
    # it here, before any backend call, as the usage error it would have been.
    out = args.out
    if out is None:
        try:
            out = _output_file(f"{args.concept}.schema")
        except argparse.ArgumentTypeError as err:
            args.usage_error(f"argument --out: {err}")
    if args.canonical:
        program = load_canonical_schema(args.concept)
    else:
        if args.backend_config is None:
            raise BackendConfigError(
                "extract requires --backend-config unless --canonical is given"
            )
        program = extract_schema(
            args.concept,
            _gateway(args),
            max_retries=args.max_retries,
            fallback_to_canonical=args.fallback_to_canonical,
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_schema(program), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def cmd_ground(args: argparse.Namespace) -> int:
    schema = parse_schema(args.schema)
    if not args.image.path.is_file():
        raise MissingImageError(f"image not found: {args.image.path}")
    ground = ground_sequential if args.sequential else ground_hierarchical
    resolved = ground(schema, args.image, _gateway(args), seed_hint=args.seed_hint)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(resolved.to_json(), encoding="utf-8")
    print(f"wrote {args.out} ({len(resolved.descriptions)} bindings)")
    return 0


def _predict(args: argparse.Namespace, modes: list[AnswerMode | str]):
    """Load the manifest, gateway and schemas, and answer the manifest under
    every mode in one run; return the manifest and the predictions by mode."""
    manifest = load_manifest(args.manifest, multiple_choice=args.multiple_choice)
    return manifest, run_predictions(
        manifest,
        modes,
        _gateway(args),
        runs=args.runs,
        concurrency=args.concurrency,
        seed_hint=args.seed_hint,
        schemas=load_schemas(manifest, args.schema_dir),
    )


def cmd_answer(args: argparse.Namespace) -> int:
    mode = AnswerMode(args.mode)
    predictions = _predict(args, [mode])[1][mode]
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{mode.value}.predictions.jsonl"
    write_predictions_jsonl(predictions, path)
    print(f"wrote {path} ({len(predictions)} predictions)")
    return 0


def _evaluate_modes(args: argparse.Namespace, modes: list[AnswerMode | str]) -> int:
    manifest, by_mode = _predict(args, modes)
    score = graded_accuracy if args.metric == "graded" else exact_match_accuracy
    human = human_leave_one_out(manifest) if args.human_row else None
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    reports_json: dict[str, object] = {}
    for mode, predictions in by_mode.items():
        report = dataclasses.replace(score(predictions, manifest), human=human)
        write_predictions_jsonl(predictions, args.out / f"{mode.value}.predictions.jsonl")
        report_json = report_to_json(report)
        (args.out / f"{mode.value}.report.json").write_text(report_json, encoding="utf-8")
        reports_json[mode.value] = json.loads(report_json)
        rows.append((mode.value, report))
    summary = {"metric": report.metric, "runs": args.runs, "modes": reports_json}
    summary_path = args.out / "summary.json"
    summary_path.write_text(json_text(summary), encoding="utf-8")
    print(format_report_table(rows, by="question_type"))
    print()
    print(format_report_table(rows, by="category"))
    print(f"wrote {summary_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    # run_predictions answers a repeated --mode once.
    return _evaluate_modes(args, args.mode or [AnswerMode.FULL_DSG])


def cmd_ablate(args: argparse.Namespace) -> int:
    return _evaluate_modes(args, list(AnswerMode))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemaground",
        description="Schema-grounded visual question answering pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="obtain a schema program for a concept")
    p_extract.add_argument("concept", type=_concept)
    p_extract.add_argument(
        "--canonical", action="store_true", help="copy the stored fixture, no backend call"
    )
    p_extract.add_argument("--max-retries", type=_non_negative_int, default=2)
    p_extract.add_argument("--fallback-to-canonical", action="store_true")
    p_extract.add_argument("--out", type=_output_file, default=None)
    _add_backend_flags(p_extract, required=False)
    p_extract.set_defaults(func=cmd_extract, usage_error=p_extract.error)

    p_ground = sub.add_parser("ground", help="resolve a schema's components on an image")
    p_ground.add_argument("--schema", type=_file_text, required=True)
    p_ground.add_argument("--image", type=_image, required=True)
    p_ground.add_argument(
        "--sequential",
        action="store_true",
        help="query components in isolation instead of conditioning on dependencies",
    )
    p_ground.add_argument("--out", type=_output_file, default="resolved.json")
    _add_backend_flags(p_ground)
    p_ground.set_defaults(func=cmd_ground)

    p_answer = sub.add_parser("answer", help="produce predictions for a manifest")
    p_answer.add_argument("--manifest", type=Path, required=True)
    p_answer.add_argument("--mode", choices=MODE_CHOICES, default=AnswerMode.FULL_DSG.value)
    p_answer.add_argument("--runs", type=_positive_int, default=1)
    p_answer.add_argument("--concurrency", type=_positive_int, default=4)
    p_answer.add_argument("--schema-dir", type=_schema_dir, default=None)
    p_answer.add_argument("--out", type=_output_dir, default="out")
    _add_choice_flags(p_answer)
    _add_backend_flags(p_answer)
    p_answer.set_defaults(func=cmd_answer)

    for name, help_text, func in (
        ("evaluate", "answer a manifest and score the predictions", cmd_evaluate),
        ("ablate", "evaluate across all five answer modes", cmd_ablate),
    ):
        p_eval = sub.add_parser(name, help=help_text)
        p_eval.add_argument("--manifest", type=Path, required=True)
        if name == "evaluate":
            p_eval.add_argument(
                "--mode",
                choices=MODE_CHOICES,
                action="append",
                help="repeatable; default full_dsg",
            )
        p_eval.add_argument("--runs", type=_positive_int, default=1)
        p_eval.add_argument("--metric", choices=METRIC_CHOICES, default="exact")
        p_eval.add_argument("--concurrency", type=_positive_int, default=4)
        p_eval.add_argument("--schema-dir", type=_schema_dir, default=None)
        p_eval.add_argument(
            "--human-row",
            action="store_true",
            help="add leave-one-annotator-out accuracy to each report",
        )
        p_eval.add_argument("--out", type=_output_dir, default="out")
        _add_choice_flags(p_eval)
        _add_backend_flags(p_eval)
        p_eval.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
