"""Smoke tests: the scripts and `python -m memtag` run end to end on small
corpora and write the files they promise."""

import os
import subprocess
import sys

import pytest
from conftest import F1_PATH
from memtag.corpus import read_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args, check=True, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, check=check, input=stdin,
        capture_output=True, text=True, timeout=300)


def run_script(name, *args, check=True):
    return run_python(os.path.join(ROOT, "scripts", name), *args, check=check)


def test_module_entry_point(tmp_path):
    """A train then tag round trip exits 0; a usage error exits 2."""
    model = str(tmp_path / "f1.model")
    run_python("-m", "memtag", "train", F1_PATH, "--model", model)
    done = run_python("-m", "memtag", "tag", "--model", model,
                      stdin="the cat saw the saw .\n")
    assert done.stdout == "the/DT cat/NN saw/VBD the/DT saw/NN ./.\n"
    done = run_python("-m", "memtag", "tag", check=False)
    assert done.returncode == 2
    assert "the following arguments are required: --model" in done.stderr


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


def test_make_corpus_no_tokens(tmp_path):
    out = tmp_path / "synth.tagged"
    done = run_script("make_corpus.py", "--tokens", "0", "-o", str(out),
                      check=False)
    assert done.returncode == 2
    assert done.stderr.startswith("error: n_tokens must be >= 1, got 0")
    assert not out.exists()


@pytest.mark.parametrize("zipf", ["nan", "inf", "1e308", "-400"])
def test_make_corpus_refuses_weights_that_are_not_finite(zipf, tmp_path):
    """Each exponent gives some type a weight that is not finite and
    positive (or one the power cannot compute), so no type can be drawn."""
    out = tmp_path / "synth.tagged"
    done = run_script("make_corpus.py", "--tokens", "2000", "--zipf", zipf,
                      "-o", str(out), check=False)
    assert done.returncode == 2
    assert done.stderr == (f"error: zipf_exponent {float(zipf)!r} gives type "
                           f"weights that are not finite and positive\n")
    assert not out.exists()
