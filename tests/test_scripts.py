"""Smoke tests: the scripts run end to end on small corpora and write the
files they promise."""

import os
import subprocess
import sys

from memtag.corpus import read_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, check=True):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, check=check, capture_output=True, text=True, timeout=300)


def test_run_experiments(tmp_path):
    run_script("run_experiments.py", "--tokens", "3000", "--folds", "2",
               "--outdir", str(tmp_path))
    compare = (tmp_path / "compare.tsv").read_text().splitlines()
    assert compare[0] == "algo\taccuracy"
    assert [line.split("\t")[0] for line in compare[1:]] == [
        "ib1", "ib1ig", "igtree"]
    curve = (tmp_path / "curve.tsv").read_text().splitlines()
    assert curve[0] == "size\tmean\tstddev"
    assert len(curve) == 11


def test_make_corpus(tmp_path):
    out = tmp_path / "synth.tagged"
    run_script("make_corpus.py", "--tokens", "2000", "-o", str(out))
    assert read_corpus(str(out)).token_count >= 2000


def test_make_corpus_too_few_types(tmp_path):
    out = tmp_path / "synth.tagged"
    done = run_script("make_corpus.py", "--tokens", "2000", "--types", "40",
                      "--seed", "1", "-o", str(out), check=False)
    assert done.returncode == 2
    assert done.stderr.startswith("error: too few types: none bears tag 'CC'")
    assert not out.exists()
