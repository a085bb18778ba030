"""Command-line entry point.

Subcommands: train, tag, eval, curve, bench. Every run is deterministic
given its inputs and --seed (timing figures aside). Exit codes: 0 success,
2 usage or parameter error, 3 model-format error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from . import evaluation
from .corpus import read_corpus
from .errors import ModelFormatError, ParameterError
from .taggen import TaggerConfig, TaggerModel, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL_FORMAT = 3
EXIT_IO = 4


@dataclass
class RunConfig:
    command: str
    corpus_paths: list[str] = field(default_factory=list)
    model_path: str | None = None
    threshold: float = 0.10
    closed_class_path: str | None = None
    seed: int = 0
    folds: int = 10
    sizes: list[int] = field(default_factory=list)
    algos: tuple[str, ...] = evaluation.ALGORITHMS
    jobs: int = 1
    output_path: str | None = None
    corpus_format: str = "slash"

    def tagger_config(self) -> TaggerConfig:
        closed = None
        if self.closed_class_path:
            _require_file(self.closed_class_path)
            with open(self.closed_class_path, encoding="utf-8") as fh:
                closed = frozenset(line.strip() for line in fh if line.strip())
        return TaggerConfig(threshold=self.threshold, closed_class_tags=closed)


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise ParameterError(f"no such file: {path}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")


def cmd_train(cfg: RunConfig) -> int:
    _require_file(cfg.corpus_paths[0])
    corpus = read_corpus(cfg.corpus_paths[0], cfg.corpus_format)
    model = train(corpus, cfg.tagger_config())
    model.save(cfg.model_path)
    print(f"model written to {cfg.model_path}")
    print(model.summary())
    return EXIT_OK


def cmd_tag(cfg: RunConfig, input_path: str | None, show_stats: bool) -> int:
    _require_file(cfg.model_path)
    model = TaggerModel.load(cfg.model_path)
    if input_path is None:
        lines = sys.stdin.read().splitlines()
    else:
        _require_file(input_path)
        with open(input_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    out_lines = []
    n_words = 0
    t0 = time.perf_counter()
    for line in lines:
        words = line.split()
        if not words:
            out_lines.append("")
            continue
        tags = model.tag(words)
        n_words += len(words)
        out_lines.append(" ".join(f"{w}/{t}" for w, t in zip(words, tags)))
    elapsed = max(time.perf_counter() - t0, 1e-9)
    text = "\n".join(out_lines)
    if cfg.output_path is None:
        if text:
            print(text)
    else:
        _write_text(cfg.output_path, text)
    if show_stats:
        print(f"{n_words} words in {elapsed:.3f}s "
              f"({n_words / elapsed:,.0f} words/s)", file=sys.stderr)
    return EXIT_OK


def cmd_eval(cfg: RunConfig, gold_left: bool, dump_gains: str | None,
             gains_base: str) -> int:
    _require_file(cfg.model_path)
    _require_file(cfg.corpus_paths[0])
    model = TaggerModel.load(cfg.model_path)
    test = read_corpus(cfg.corpus_paths[0], cfg.corpus_format)
    report = evaluation.evaluate(model, test, gold_left_context=gold_left)
    print(report.table())
    print(f"{report.total} tokens, {report.words_per_second:,.0f} words/s, "
          f"model {os.path.getsize(cfg.model_path)} bytes")
    if cfg.output_path:
        _write_text(cfg.output_path, report.tsv())
    if dump_gains:
        weights = (model.known_weights if gains_base == "known"
                   else model.unknown_weights)
        _write_text(dump_gains, evaluation.gains_tsv(weights))
    return EXIT_OK


def cmd_curve(cfg: RunConfig, gold_left: bool) -> int:
    _require_file(cfg.corpus_paths[0])
    corpus = read_corpus(cfg.corpus_paths[0], cfg.corpus_format)
    if not cfg.sizes:
        raise ParameterError("curve requires --sizes")
    points = evaluation.learning_curve(
        corpus, cfg.sizes, k=cfg.folds, seed=cfg.seed,
        config=cfg.tagger_config(), gold_left_context=gold_left,
        jobs=cfg.jobs)
    _write_text(cfg.output_path, evaluation.curve_tsv(points))
    return EXIT_OK


def cmd_bench(cfg: RunConfig, test_fraction: float) -> int:
    _require_file(cfg.corpus_paths[0])
    corpus = read_corpus(cfg.corpus_paths[0], cfg.corpus_format)
    rows = evaluation.bench(corpus, cfg.algos, test_fraction, cfg.seed,
                            cfg.tagger_config())
    _write_text(cfg.output_path, evaluation.bench_tsv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtag",
        description="Generate, run, and evaluate memory-based POS taggers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", default="slash", choices=["slash"],
                       help="corpus file format")

    p = sub.add_parser("train", help="generate a tagger model from a corpus")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=0.10)
    p.add_argument("--closed-class", metavar="FILE")
    common(p)

    p = sub.add_parser("tag", help="tag plain sentences, one per line")
    p.add_argument("input", nargs="?")
    p.add_argument("--model", required=True)
    p.add_argument("--output", "-o")
    p.add_argument("--stats", action="store_true",
                   help="print throughput to stderr")
    common(p)

    p = sub.add_parser("eval", help="score a model against a tagged corpus")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--gold-left-context", action="store_true")
    p.add_argument("--out", metavar="FILE", help="write the report as TSV")
    p.add_argument("--dump-gains", metavar="FILE")
    p.add_argument("--gains-base", choices=["known", "unknown"],
                   default="known")
    common(p)

    p = sub.add_parser("curve", help="cross-validated learning curve")
    p.add_argument("corpus")
    p.add_argument("--sizes", required=True,
                   help="comma-separated token counts")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--threshold", type=float, default=0.10)
    p.add_argument("--closed-class", metavar="FILE")
    p.add_argument("--gold-left-context", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", metavar="FILE")
    common(p)

    p = sub.add_parser("bench", help="compare ib1, ib1ig, and igtree")
    p.add_argument("corpus")
    p.add_argument("--algos", default=",".join(evaluation.ALGORITHMS))
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--threshold", type=float, default=0.10)
    p.add_argument("--closed-class", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    common(p)

    return parser


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad --sizes value: {text!r}") from exc


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        corpus_paths=[args.corpus] if hasattr(args, "corpus") else [],
        model_path=getattr(args, "model", None),
        threshold=getattr(args, "threshold", 0.10),
        closed_class_path=getattr(args, "closed_class", None),
        seed=args.seed,
        folds=getattr(args, "folds", 10),
        sizes=_parse_sizes(args.sizes) if getattr(args, "sizes", None) else [],
        algos=tuple(getattr(args, "algos", ",".join(evaluation.ALGORITHMS))
                    .split(",")),
        jobs=getattr(args, "jobs", 1),
        output_path=getattr(args, "out", None) or getattr(args, "output", None),
        corpus_format=args.format,
    )
    if cfg.command == "train":
        return cmd_train(cfg)
    if cfg.command == "tag":
        return cmd_tag(cfg, args.input, args.stats)
    if cfg.command == "eval":
        return cmd_eval(cfg, args.gold_left_context, args.dump_gains,
                        args.gains_base)
    if cfg.command == "curve":
        return cmd_curve(cfg, args.gold_left_context)
    if cfg.command == "bench":
        return cmd_bench(cfg, args.test_fraction)
    raise ParameterError(f"unknown command {cfg.command!r}")


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
