"""Command-line entry point.

Subcommands: train, tag, eval, curve. Every run is deterministic given its
inputs (and --seed, which only curve takes), timing figures aside. Exit
codes: 0 success, 2 usage or parameter error, 3 model-format error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import evaluation
from .corpus import read_corpus, read_text, write_text
from .errors import ModelFormatError, ParameterError
from .taggen import TaggerConfig, TaggerModel, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL_FORMAT = 3
EXIT_IO = 4


def _tagger_config(args: argparse.Namespace) -> TaggerConfig:
    closed = None
    if args.closed_class:
        lines = read_text(args.closed_class).split("\n")
        closed = frozenset(line.strip() for line in lines if line.strip())
    return TaggerConfig(threshold=args.threshold, closed_class_tags=closed)


def cmd_train(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.corpus)
    model = train(corpus, _tagger_config(args))
    model.save(args.model)
    print(f"model written to {args.model}")
    print(model.summary())
    return EXIT_OK


def cmd_tag(args: argparse.Namespace) -> int:
    model = TaggerModel.load(args.model)
    data = read_text(args.input)
    # one sentence per line, as in parse_corpus; the last "\n" is optional
    lines = data.removesuffix("\n").split("\n") if data else []
    out = []
    n_words = 0
    t0 = time.perf_counter()
    for line in lines:
        words = line.split()
        tags = model.tag(words) if words else []
        n_words += len(words)
        out.append(" ".join(f"{w}/{t}" for w, t in zip(words, tags)) + "\n")
    elapsed = max(time.perf_counter() - t0, 1e-9)
    write_text(args.output, "".join(out))
    if args.stats:
        print(f"{n_words} words in {elapsed:.3f}s "
              f"({n_words / elapsed:,.0f} words/s)", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model = TaggerModel.load(args.model)
    test = read_corpus(args.corpus)
    report = evaluation.evaluate(model, test,
                                 gold_left_context=args.gold_left_context)
    print(report.table())
    print(f"{report.total} tokens, {report.words_per_second:,.0f} words/s, "
          f"model {os.path.getsize(args.model)} bytes")
    if args.out:
        write_text(args.out, report.tsv() + "\n")
    if args.dump_gains:
        weights = (model.known_weights if args.gains_base == "known"
                   else model.unknown_weights)
        write_text(args.dump_gains, evaluation.gains_tsv(weights) + "\n")
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    corpus = read_corpus(args.corpus)
    sizes = _parse_sizes(args.sizes)
    if not sizes:
        raise ParameterError(f"--sizes lists no size: {args.sizes!r}")
    points = evaluation.learning_curve(
        corpus, sizes, k=args.folds, seed=args.seed,
        config=_tagger_config(args), gold_left_context=args.gold_left_context)
    write_text(args.out, evaluation.curve_tsv(points) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtag",
        description="Generate, run, and evaluate memory-based POS taggers.")
    sub = parser.add_subparsers(dest="command", required=True)

    tagger = argparse.ArgumentParser(add_help=False)
    tagger.add_argument("--threshold", type=float,
                        default=TaggerConfig.threshold)
    tagger.add_argument("--closed-class", metavar="FILE")

    p = sub.add_parser("train", parents=[tagger],
                       help="generate a tagger model from a corpus")
    p.set_defaults(run=cmd_train)
    p.add_argument("corpus")
    p.add_argument("--model", required=True)

    p = sub.add_parser("tag", help="tag plain sentences, one per line")
    p.set_defaults(run=cmd_tag)
    p.add_argument("input", nargs="?")
    p.add_argument("--model", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--stats", action="store_true",
                   help="print throughput to stderr")

    p = sub.add_parser("eval", help="score a model against a tagged corpus")
    p.set_defaults(run=cmd_eval)
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--gold-left-context", action="store_true")
    p.add_argument("--out", metavar="FILE", help="write the report as TSV")
    p.add_argument("--dump-gains", metavar="FILE")
    p.add_argument("--gains-base", choices=["known", "unknown"],
                   default="known")

    p = sub.add_parser("curve", parents=[tagger],
                       help="cross-validated learning curve")
    p.set_defaults(run=cmd_curve)
    p.add_argument("corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", required=True,
                   help="comma-separated token counts")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--gold-left-context", action="store_true")
    p.add_argument("--out", metavar="FILE")

    return parser


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --sizes value: {text!r}") from exc


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL_FORMAT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
