"""Command-line entry point.

Subcommands map onto pipeline stages (``score`` also writes the stats and
word tables from its text pass); ``run-all`` composes all of them. Options
may come from a flat key=value config file (--config), with command-line
flags taking precedence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import EmocastError
from .pipeline import STAGES, RunConfig, load_config_file, run_pipeline


def _parse_k(raw: str) -> int | str:
    if raw == "auto":
        return "auto"
    return int(raw)


def _parse_bool(raw: object) -> bool:
    value = str(raw).lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


# (config key, RunConfig field, converter, help). Each key is also a flag:
# "min_dialogues" is --min-dialogues. --strict takes no value.
OPTIONS = (
    ("scripts", "script_dir", Path, "directory of .txt / .jsonl scripts"),
    ("metadata", "metadata_path", Path, "character metadata CSV"),
    ("lexicon", "lexicon_path", Path, "word-affect lexicon TSV"),
    ("out", "output_dir", Path, "output directory for artifacts"),
    ("min_dialogues", "min_dialogues", int, "drop characters below this count (default 5)"),
    ("k", "k", _parse_k, "cluster count, or 'auto' for elbow selection"),
    ("seed", "seed", int, "random seed (default 42)"),
    ("perplexity", "perplexity", float, "t-SNE perplexity (default 30)"),
    ("bin_years", "bin_years", int, "width of release-year bins (default 5)"),
    ("strict", "strict", _parse_bool, "treat stale stage inputs as errors instead of warnings"),
    ("top_words", "top_words", int, "exclusive nouns listed per gender group (default 50)"),
)
REQUIRED = ("scripts", "metadata", "lexicon", "out")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emocast",
        description="Parse screenplays, embed dialogue into Plutchik emotion vectors, "
        "and contrast how character groups are written.",
    )
    parser.add_argument(
        "command",
        choices=[*STAGES, "run-all"],
        help="pipeline stage to run, or run-all for the whole pipeline",
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    for key, _, _, help_text in OPTIONS:
        if key == "strict":
            parser.add_argument(_flag(key), action="store_true", default=None, help=help_text)
        else:
            parser.add_argument(_flag(key), help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over config-file values, each through its converter."""
    raw: dict[str, tuple[object, str]] = {}  # key -> (value, where it came from)
    if args.config is not None:
        known = {key for key, *_ in OPTIONS}
        for key, value in load_config_file(args.config).items():
            if key not in known:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            raw[key] = (value, f"{args.config}: key {key!r}")
    for key, *_ in OPTIONS:
        flag = getattr(args, key)
        if flag is not None:
            raw[key] = (flag, _flag(key))
    missing = [_flag(key) for key in REQUIRED if key not in raw]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")

    fields = {}
    for key, field, convert, _ in OPTIONS:
        if key in raw:
            value, where = raw[key]
            try:
                fields[field] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{where}: bad value {value!r}: {exc}") from None
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.validate()
    except (EmocastError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run-all":
            run_pipeline(cfg)
        else:
            STAGES[args.command](cfg)
    except (EmocastError, OSError, ValueError) as exc:
        print(f"error in stage {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
