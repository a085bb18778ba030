#!/usr/bin/env python3
"""End-to-end experiment run on a synthetic corpus.

Reproduces the three headline comparisons at desk scale: the known-word
accuracy of IB1, IB1-IG and IGTree on one held-out fold (fold 0 of 10), the
known/unknown accuracy breakdown of a full tagger on that fold, and a
cross-validated learning curve. Writes compare.tsv and curve.tsv into the
output directory.
"""

import argparse
import os
import time

from memtag.corpus import cv_folds, write_text
from memtag.evaluation import (compare_algorithms, curve_tsv, evaluate,
                               learning_curve)
from memtag.synth import SynthConfig, synth_corpus
from memtag.taggen import train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tokens", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--folds", type=int, default=10)
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()

    corpus = synth_corpus(SynthConfig(n_tokens=args.tokens, seed=args.seed))
    print(f"corpus: {corpus.token_count} tokens, {len(corpus)} sentences")

    train_c, test_c = cv_folds(corpus, 10, args.seed)[0]

    print("\n== algorithm comparison (known words, gold left context) ==")
    accs = compare_algorithms(train_c, test_c)
    lines = ["algo\taccuracy"]
    lines += [f"{algo}\t{acc:.6f}" for algo, acc in accs.items()]
    table = "\n".join(lines)
    print(table)
    write_text(os.path.join(args.outdir, "compare.tsv"), table + "\n")

    print("\n== full tagger on the same held-out fold ==")
    t0 = time.perf_counter()
    model = train(train_c)
    print(f"trained in {time.perf_counter() - t0:.1f}s")
    print(model.summary())
    report = evaluate(model, test_c)
    print(report.table())
    print(f"{report.words_per_second:,.0f} words/s")

    print("\n== learning curve ==")
    step = corpus.token_count // 10
    sizes = [step * i for i in range(1, 11)]
    points = learning_curve(corpus, sizes, k=args.folds, seed=args.seed)
    table = curve_tsv(points)
    print(table)
    write_text(os.path.join(args.outdir, "curve.tsv"), table + "\n")


if __name__ == "__main__":
    main()
