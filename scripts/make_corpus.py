#!/usr/bin/env python3
"""Generate a synthetic tagged corpus in slash format.

Example:
    python scripts/make_corpus.py --tokens 100000 --seed 3 -o wsj-like.tagged
"""

import argparse
import sys

from memtag.corpus import write_corpus
from memtag.errors import ParameterError
from memtag.synth import SynthConfig, synth_corpus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tokens", type=int, default=100_000)
    ap.add_argument("--types", type=int, default=1_200)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--zipf", type=float, default=1.25)
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args()

    try:
        corpus = synth_corpus(SynthConfig(
            n_tokens=args.tokens, n_types=args.types,
            zipf_exponent=args.zipf, seed=args.seed))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_corpus(corpus, args.output)
    print(f"{corpus.token_count} tokens / {len(corpus)} sentences "
          f"-> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
