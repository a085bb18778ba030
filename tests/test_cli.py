import argparse
import codecs
import io
import os
import re
import struct

import pytest

from conftest import (F1_PATH, LEAF, chained_known_tree_model, config_section,
                      count_lexical_entries, f1_model_with_known_nodes,
                      f1_model_with_lexicon, lexicon_columns, lexicon_section,
                      preorder, readme_section, with_crc, with_section,
                      with_tree_ints)
from memtag.cli import build_parser, main
from memtag.corpus import read_corpus, write_corpus
from memtag.errors import ModelFormatError
from memtag.evaluation import gains_tsv as gains_tsv_text
from memtag.synth import SynthConfig, synth_corpus
from memtag.taggen import TaggerConfig, TaggerModel, train


@pytest.fixture
def model_path(tmp_path):
    path = str(tmp_path / "f1.model")
    assert main(["train", F1_PATH, "--model", path]) == 0
    return path


def test_train_summary_reports_ambiguity(tmp_path, capsys):
    path = str(tmp_path / "m.model")
    assert main(["train", F1_PATH, "--model", path]) == 0
    out = capsys.readouterr().out
    assert "8 word types" in out
    assert "1 (12.5%) ambiguous" in out
    assert os.path.getsize(path) > 0


def test_train_and_tag_marker_texts_as_tags(tmp_path, capsys):
    """The tags "=" and "UNK-A", and a lexicon tag joined to "UNK-A",
    train like any other and come back from `tag`."""
    corpus = tmp_path / "marker.tagged"
    corpus.write_text("a/= b/UNK-A ./.\nw/UNK ./.\nw/UNK ./.\nw/A x/X ./.\n")
    path = str(tmp_path / "m.model")
    assert main(["train", str(corpus), "--model", path]) == 0
    inp = tmp_path / "in.txt"
    inp.write_text("a b .\nw .\nw x .\n")
    capsys.readouterr()
    assert main(["tag", str(inp), "--model", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a/= b/UNK-A ./.", "w/UNK ./.", "w/A x/X ./."]


def test_train_missing_input(tmp_path):
    assert main(["train", str(tmp_path / "nope.tagged"),
                 "--model", str(tmp_path / "m")]) == 2


def test_train_determinism(tmp_path):
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    assert main(["train", F1_PATH, "--model", p1]) == 0
    assert main(["train", F1_PATH, "--model", p2]) == 0
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()


def test_train_io_error(tmp_path):
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "m.model")
    assert main(["train", F1_PATH, "--model", missing_dir]) == 4


def test_tag_round_trip(model_path, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat saw the saw .\na saw cuts the wood .\n")
    assert main(["tag", str(inp), "--model", model_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "the/DT cat/NN saw/VBD the/DT saw/NN ./."
    assert out[1] == "a/DT saw/NN cuts/VBZ the/DT wood/NN ./."


def test_tag_splits_lines_at_newline_only(model_path, tmp_path, capsys):
    """A U+2028 inside a line separates words, not sentences: two input
    lines give two output lines."""
    inp = tmp_path / "in.txt"
    inp.write_text("the cat\u2028saw the saw .\na saw cuts the wood .\n",
                   encoding="utf-8")
    assert main(["tag", str(inp), "--model", model_path]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "the/DT cat/NN saw/VBD the/DT saw/NN ./.",
        "a/DT saw/NN cuts/VBZ the/DT wood/NN ./.", ""]


def test_tag_empty_input(model_path, tmp_path, capsys):
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    assert main(["tag", str(inp), "--model", model_path]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("data, n_lines", [
    ("", 0), ("\n", 1), ("a .\n\nb .\n", 3), ("a .", 1),
    ("a .\r\n\r\nb .\r\n", 3), ("a .\r\rb .", 3), ("a .\rb .\r\n", 2),
    ("a\u2028.\nb .\u2028", 2), ("\ufeffa .\nb .", 2)])
def test_tag_writes_one_line_per_input_line(model_path, tmp_path, capsysbinary,
                                            monkeypatch, data, n_lines):
    """`tag FILE`, `tag < FILE` and `tag FILE -o OUT` write the same bytes:
    one "\n"-ended line per input line, blank for a blank one. A line ends
    at "\n", "\r\n" or "\r" and nowhere else; a leading byte order mark is
    not part of it."""
    inp, outp = tmp_path / "in.txt", tmp_path / "out.tagged"
    inp.write_bytes(data.encode("utf-8"))
    assert main(["tag", str(inp), "--model", model_path]) == 0
    out = capsysbinary.readouterr().out
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(inp.read_bytes())))
    assert main(["tag", "--model", model_path]) == 0
    assert capsysbinary.readouterr().out == out
    assert main(["tag", str(inp), "--model", model_path, "-o", str(outp)]) == 0
    assert outp.read_bytes() == out
    lines = re.split("\r\n|\r|\n", data.removeprefix("\ufeff"))[:n_lines]
    model = TaggerModel.load(model_path)
    assert out.decode("utf-8") == "".join(
        " ".join(map("/".join, zip(ws, model.tag(ws) if ws else []))) + "\n"
        for ws in map(str.split, lines))


def test_tag_stats_flag(model_path, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat saw the saw .\n")
    assert main(["tag", str(inp), "--model", model_path, "--stats"]) == 0
    assert "words/s" in capsys.readouterr().err


def test_tag_output_file(model_path, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat .\n")
    outp = tmp_path / "out.tagged"
    assert main(["tag", str(inp), "--model", model_path,
                 "--output", str(outp)]) == 0
    assert outp.read_text().strip() == "the/DT cat/NN ./."


def test_tag_model_version_mismatch(model_path, tmp_path, capsys):
    data = bytearray(open(model_path, "rb").read())
    data[4:6] = (77).to_bytes(2, "little")
    bad = tmp_path / "bad.model"
    bad.write_bytes(bytes(data))
    inp = tmp_path / "in.txt"
    inp.write_text("the cat .\n")
    assert main(["tag", str(inp), "--model", str(bad)]) == 3
    assert "model version 77 " in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["7", "nan", "-0.5"])
def test_train_rejects_threshold_outside_unit_interval(threshold, tmp_path,
                                                       capsys):
    path = tmp_path / "m.mbt"
    assert main(["train", F1_PATH, "--model", str(path),
                 "--threshold", threshold]) == 2
    assert "threshold must be in [0, 1]" in capsys.readouterr().err
    assert not path.exists()


def test_tag_model_threshold_out_of_range(model_path, tmp_path, capsys):
    model = TaggerModel.load(model_path)
    data = model.to_bytes()
    inp = tmp_path / "in.txt"
    inp.write_text("the cat .\n")
    bad = tmp_path / "bad.model"
    for value in (7.0, float("nan")):
        patched = with_section(data, "config", config_section(model),
                               config_section(model, threshold=value))
        with pytest.raises(ModelFormatError, match="threshold must be in"):
            TaggerModel.from_bytes(patched)
        bad.write_bytes(patched)
        assert main(["tag", str(inp), "--model", str(bad)]) == 3
        assert "threshold must be in [0, 1]" in capsys.readouterr().err


def test_tag_tree_default_out_of_range(model_path, tmp_path, capsys):
    # the unknown tree's root default, patched past the symbol table: an
    # unseen word with no seen letter misses at the root and would answer it
    model = TaggerModel.load(model_path)
    tree = model.unknown_tree
    ints = preorder(tree.root)
    bad = tmp_path / "bad.model"
    bad.write_bytes(with_tree_ints(model, "unknown_tree",
                                   [0xFFFFFFFF, *ints[1:]]))
    inp = tmp_path / "in.txt"
    inp.write_text("zzz\n")
    assert main(["tag", str(inp), "--model", str(bad)]) == 3
    assert "tree default 4294967295 is not a symbol" in capsys.readouterr().err


def zero_count_model():
    """The f1 model with its first lexicon count set to 0, CRC recomputed."""
    words, n_tags, tag_ids, counts = lexicon_columns(train(read_corpus(F1_PATH)))
    return f1_model_with_lexicon(lexicon_section(
        words, n_tags, tag_ids, [0, *counts[1:]]))


def flipped_byte_model():
    """The f1 model with one byte of its body changed, CRC left as it was."""
    data = bytearray(train(read_corpus(F1_PATH)).to_bytes())
    data[len(data) // 2] ^= 0x01
    return bytes(data)


def trailing_byte_model():
    """The f1 model with one byte appended to its body, CRC recomputed."""
    data = train(read_corpus(F1_PATH)).to_bytes()
    return with_crc(data[:-4] + b"\x00" + data[-4:])


@pytest.mark.parametrize("data, message", [
    (b"MBT1\x01", "truncated model header"),  # half a version
    (flipped_byte_model(), "CRC mismatch"),
    (zero_count_model(), "lexicon count of zero"),  # CRC-valid
    (chained_known_tree_model(3000), "below the last feature"),  # CRC-valid
    (trailing_byte_model(), "1 trailing bytes"),  # CRC-valid
    # CRC-valid tree sections; f1's symbols are all below 256
    (f1_model_with_known_nodes(LEAF, width=2), "width 2 is wider"),
    (f1_model_with_known_nodes(LEAF, width=4), "width 4 is wider"),
    (f1_model_with_known_nodes(LEAF, n_ints=1 << 20), "truncated column"),
    (f1_model_with_known_nodes(LEAF + [0]), "1 tree values left over"),
    (f1_model_with_known_nodes([0, 1, 0]), "list index out of range"),
    (f1_model_with_known_nodes([200, 0]), "tree default 200 is not a symbol"),
    (f1_model_with_known_nodes([0, 1, 200, *LEAF]),
     "tree arc value 200 is not a symbol"),
], ids=["short_header", "crc_mismatch", "zero_count", "deep_tree",
        "trailing_byte", "wide_column_2", "wide_column_4", "long_tree",
        "tree_values_left_over", "short_tree", "tree_default",
        "tree_arc_value"])
def test_tag_malformed_model_exits_3(data, message, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(data)
    inp = tmp_path / "in.txt"
    inp.write_text("the cat .\n")
    assert main(["tag", str(inp), "--model", str(bad)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_model_errors_name_the_file(command, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"MBT1\x01")
    assert main([command, F1_PATH, "--model", str(bad)]) == 3
    assert capsys.readouterr().err == (
        f"model error: {bad}: truncated model header\n")
    missing = tmp_path / "none.model"
    assert main([command, F1_PATH, "--model", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


def test_v1_model_rejected(tmp_path, capsys):
    """Version 1 to 5 files are refused by their version, before the CRC
    is read, with a message that says to retrain."""
    # each header, then the start of that version's interner table: "=" and
    # "UNK-A", as v1's count and length-prefixed texts, as the text list of
    # v2 to v4 (a column of code-point lengths, then the byte count and the
    # texts joined); v5 stores no marker, so its table starts with "DT"
    text_list = struct.pack("<BI2BI", 1, 2, 1, 5, 6) + b"=UNK-A"
    old = {1: struct.pack("<II", 2, 1) + b"=" + struct.pack("<I", 5)
           + b"UNK-A",
           2: text_list, 3: text_list, 4: text_list,
           5: struct.pack("<I", 3) + b"DT\n"}
    inp = tmp_path / "in.txt"
    inp.write_text("the cat .\n")
    for version, interner in old.items():
        data = b"MBT1" + struct.pack("<H", version) + interner
        with pytest.raises(ModelFormatError,
                           match=f"version {version} .*version 6.*retrain"):
            TaggerModel.from_bytes(data)
        bad = tmp_path / f"v{version}.model"
        bad.write_bytes(data)
        assert main(["tag", str(inp), "--model", str(bad)]) == 3
        assert f"version {version} " in capsys.readouterr().err


def test_eval_table_and_artifacts(model_path, tmp_path, capsys):
    out_tsv = tmp_path / "report.tsv"
    gains_tsv = tmp_path / "gains.tsv"
    assert main(["eval", F1_PATH, "--model", model_path,
                 "--out", str(out_tsv), "--dump-gains", str(gains_tsv)]) == 0
    out = capsys.readouterr().out
    for row in ("Known", "Unknown", "Total"):
        assert row in out
    assert f"model {os.path.getsize(model_path)} bytes" in out
    assert out_tsv.read_text().splitlines()[0] == "category\taccuracy\tpercentage"
    glines = gains_tsv.read_text().splitlines()
    assert glines[0] == "feature_index\tgain"
    assert len(glines) == 5
    assert main(["eval", F1_PATH, "--model", model_path, "--dump-gains",
                 str(gains_tsv), "--gains-base", "unknown"]) == 0
    unknown = TaggerModel.load(model_path).unknown_weights
    assert gains_tsv.read_text() == gains_tsv_text(unknown) + "\n"


def test_eval_gold_left_context_flag(model_path):
    assert main(["eval", F1_PATH, "--model", model_path,
                 "--gold-left-context"]) == 0


def test_tag_and_eval_build_no_lexicon_entries(model_path, tmp_path,
                                                monkeypatch):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat saw 61 blorfts .\n")
    built = count_lexical_entries(monkeypatch)
    assert main(["tag", str(inp), "--model", model_path]) == 0
    assert main(["eval", F1_PATH, "--model", model_path]) == 0
    assert built == []


def test_curve_command(tmp_path, capsys):
    corpus_path = str(tmp_path / "synth.tagged")
    write_corpus(synth_corpus(SynthConfig(n_tokens=3000, seed=1)), corpus_path)
    out = tmp_path / "curve.tsv"
    argv = ["curve", corpus_path, "--sizes", "1000,2000", "--folds", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "size\tmean\tstddev"
    assert len(lines) == 3
    capsys.readouterr()
    assert main(argv) == 0  # without --out, the same TSV on stdout
    assert capsys.readouterr().out == out.read_text()


def test_curve_requires_sizes(tmp_path, capsys):
    corpus_path = str(tmp_path / "synth.tagged")
    write_corpus(synth_corpus(SynthConfig(n_tokens=1000, seed=1)), corpus_path)
    assert main(["curve", corpus_path, "--sizes", ",", "--folds", "2"]) == 2
    assert capsys.readouterr().err == "error: --sizes lists no size: ','\n"


def test_curve_bad_sizes(capsys):
    assert main(["curve", F1_PATH, "--sizes", "10,x"]) == 2
    assert capsys.readouterr().err == "error: bad --sizes value: '10,x'\n"


def test_usage_error_exit_code():
    for argv in (["definitely-not-a-command"],
                 ["curve", F1_PATH, "--sizes", "10", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_closed_class_file(tmp_path, capsys):
    closed = tmp_path / "closed.txt"
    closed.write_text("DT\n.\n")
    path = str(tmp_path / "m.model")
    assert main(["train", F1_PATH, "--model", path,
                 "--closed-class", str(closed)]) == 0


NOT_UTF8 = b"the/DT cat/NN ./.\n\xff/NN ./.\n"


def test_train_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "bad.tagged"
    corpus.write_bytes(NOT_UTF8)
    assert main(["train", str(corpus), "--model", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}: line 2: byte 0xff is not UTF-8\n")


def test_eval_names_the_line_of_a_byte_that_is_not_utf8(model_path, tmp_path,
                                                       capsys):
    corpus = tmp_path / "bad.tagged"
    corpus.write_bytes(NOT_UTF8)
    assert main(["eval", str(corpus), "--model", model_path]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}: line 2: byte 0xff is not UTF-8\n")


@pytest.mark.parametrize("command", ["train", "eval", "curve"])
@pytest.mark.parametrize("data, message", [
    (b"the/DT\rcat/NN\r\n./. the\n",
     "line 3: token 'the' has no word/tag separator"),
    (b"the/DT\rcat/NN\r\n\xe9/NN\n", "line 3: byte 0xe9 is not UTF-8")],
    ids=["no-separator", "not-utf8"])
def test_corpus_errors_name_the_file_and_line(command, data, message,
                                              model_path, tmp_path, capsys):
    corpus = tmp_path / "bad.tagged"
    corpus.write_bytes(data)
    rest = {"train": ["--model", str(tmp_path / "m")],
            "eval": ["--model", model_path], "curve": ["--sizes", "4"]}
    assert main([command, str(corpus), *rest[command]]) == 2
    assert capsys.readouterr().err == f"error: {corpus}: {message}\n"


def test_tag_names_the_file_and_line_of_a_byte_that_is_not_utf8(
        model_path, tmp_path, capsys, monkeypatch):
    inp = tmp_path / "in.txt"
    inp.write_bytes(b"the cat .\r\n\xc3\xa9 .\n\xe2\x82 .\n")
    assert main(["tag", str(inp), "--model", model_path]) == 2
    assert capsys.readouterr().err == (
        f"error: {inp}: line 3: byte 0xe2 is not UTF-8\n")
    # standard input counts lines as a file does
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"the cat .\r\xff .\n")))
    assert main(["tag", "--model", model_path]) == 2
    assert capsys.readouterr().err == (
        "error: <stdin>: line 2: byte 0xff is not UTF-8\n")


def test_closed_class_file_names_the_line_of_a_byte_that_is_not_utf8(
        tmp_path, capsys):
    closed = tmp_path / "closed.txt"
    closed.write_bytes(b"DT\n.\nIN\xff\n")
    assert main(["train", F1_PATH, "--model", str(tmp_path / "m"),
                 "--closed-class", str(closed)]) == 2
    assert capsys.readouterr().err == (
        f"error: {closed}: line 3: byte 0xff is not UTF-8\n")


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_inputs_ignore_a_leading_byte_order_mark(bom, model_path, tmp_path,
                                                 capsys, monkeypatch):
    """A corpus, a closed-class file and tag input, from a file or from
    standard input, read the same with or without the mark."""
    corpus, closed = tmp_path / "c.tagged", tmp_path / "closed.txt"
    with open(F1_PATH, "rb") as fh:
        corpus.write_bytes(bom + fh.read())
    closed.write_bytes(bom + b"DT\n.\n")
    path = tmp_path / "m.model"
    assert main(["train", str(corpus), "--model", str(path),
                 "--closed-class", str(closed)]) == 0
    config = TaggerConfig(closed_class_tags=frozenset({"DT", "."}))
    assert path.read_bytes() == train(read_corpus(F1_PATH), config).to_bytes()
    capsys.readouterr()
    inp = tmp_path / "in.txt"
    inp.write_bytes(bom + b"the cat saw the saw .\n")
    assert main(["tag", str(inp), "--model", model_path]) == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(inp.read_bytes())))
    assert main(["tag", "--model", model_path]) == 0
    assert capsys.readouterr().out == (
        "the/DT cat/NN saw/VBD the/DT saw/NN ./.\n" * 2)


def test_tag_reads_standard_input(model_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(b"the cat saw the saw .\n")))
    assert main(["tag", "--model", model_path]) == 0
    assert capsys.readouterr().out == (
        "the/DT cat/NN saw/VBD the/DT saw/NN ./.\n")


def readme_synopsis():
    """Per subcommand, its lines of README's `## Command line` block,
    joined: a line that starts with `memtag` opens a subcommand, and each
    indented line after it continues that subcommand."""
    block = readme_section("Command line").split("```\n", 2)[1]
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("memtag "):
            command = line.split()[1]
            synopsis[command] = line
        else:
            synopsis[command] += " " + line.strip()
    return synopsis


def test_readme_synopsis_lists_each_subcommands_options():
    """README's command-line block names every option of each subcommand
    (either alias will do) and no other, shows an optional positional in
    brackets, a required one bare, and shows as an option's number its
    parser default."""
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = readme_synopsis()
    assert sorted(synopsis) == sorted(commands)
    numbers = []
    for name, sub in commands.items():
        for option, number in re.findall(r"(--[\w-]+) (\d[\d.]*)(?=[\s\]])",
                                         synopsis[name]):
            action = next(a for a in sub._actions
                          if option in a.option_strings)
            assert float(number) == action.default, (name, option)
            numbers.append((name, option))
        words = synopsis[name].replace("[", " [ ").replace("]", " ] ").split()
        shown = {w.split("=")[0] for w in words if w.startswith("-")}
        options = [a.option_strings for a in sub._actions
                   if a.option_strings and a.dest != "help"]
        assert all(shown & set(strings) for strings in options), name
        assert shown <= {s for strings in options for s in strings}, name
        for action in sub._actions:
            if action.option_strings:
                continue
            metavar = action.dest.upper()
            want = (f"[ {metavar} ]" if action.nargs == "?" else metavar)
            assert f"memtag {name} {want} " in " ".join(words), name
    assert numbers == [("train", "--threshold"), ("curve", "--folds"),
                       ("curve", "--seed"), ("curve", "--threshold")]
