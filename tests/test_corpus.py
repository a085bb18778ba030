import codecs

import pytest
from hypothesis import given, strategies as st

from memtag.corpus import (Corpus, Token, cv_folds, format_corpus,
                           parse_corpus, read_corpus)
from memtag.errors import CorpusParseError, EmptyCorpusError, ParameterError


def test_parse_simple():
    c = parse_corpus("the/DT cat/NN ./.")
    assert len(c) == 1
    assert c.token_count == 3
    assert c.sentences[0][0] == Token("the", "DT")


def test_parse_empty_input():
    with pytest.raises(EmptyCorpusError):
        parse_corpus("")
    with pytest.raises(EmptyCorpusError):
        parse_corpus("\n  \n")


def test_parse_f1(f1):
    assert len(f1) == 3
    assert f1.token_count == 18


def test_embedded_slash_splits_on_last():
    c = parse_corpus("1/2/CD cups/NNS")
    assert c.sentences[0][0] == Token("1/2", "CD")
    assert c.sentences[0][1] == Token("cups", "NNS")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CorpusParseError) as exc:
        parse_corpus("the/DT cat/NN\nbroken token/")
    assert exc.value.line_no == 2
    with pytest.raises(CorpusParseError):
        parse_corpus("noslash")
    with pytest.raises(CorpusParseError):
        parse_corpus("/DT")


def test_parse_builds_tokens_and_names_each_fault():
    """Parsed tokens are Tokens; each fault keeps its own message and
    names its line."""
    tok = parse_corpus("the/DT 1/2/CD").sentences[0][1]
    assert type(tok) is Token and (tok.word, tok.tag) == ("1/2", "CD")
    for text, message in (("a/A\nnoslash", "line 2: token 'noslash' has no "
                           "word/tag separator"),
                          ("a/A\n\n/DT", "line 3: token '/DT' has an empty "
                           "word or tag"),
                          ("a/ b/B", "line 1: token 'a/' has an empty word "
                           "or tag"),
                          # faults after tokens seen on an earlier line, on
                          # the same line and behind a blank line
                          ("a/A b/B\n\nb/B a/A noslash", "line 3: token "
                           "'noslash' has no word/tag separator"),
                          ("a/A b/B\nb/B a/A b/ a/A", "line 2: token 'b/' "
                           "has an empty word or tag"),
                          ("x/X x/X /X x/X", "line 1: token '/X' has an "
                           "empty word or tag"),
                          ("a/A\n\n\na/A a/A a/A/ bad", "line 4: token "
                           "'a/A/' has an empty word or tag")):
        with pytest.raises(CorpusParseError) as exc:
            parse_corpus(text)
        assert str(exc.value) == message


def test_lines_split_at_newline_only():
    """A form feed inside a line separates tokens, not sentences, and line
    numbers count newlines only."""
    c = parse_corpus("a/X\x0cb/Y")
    assert c.sentences == [[Token("a", "X"), Token("b", "Y")]]
    with pytest.raises(CorpusParseError, match="line 2: token 'bad'") as exc:
        parse_corpus("a/X\x0cb/Y\nbad")
    assert exc.value.line_no == 2


@pytest.mark.parametrize("corpus, parse", [
    ("f1", True), ("synth_small", True), ("synth_small", False),
    ("synth_medium", False)],
    ids=["parsed-f1", "parsed-synth_small", "synth_small", "synth_medium"])
def test_corpus_holds_one_object_per_distinct_text(corpus, parse, request):
    """In a corpus that `parse_corpus` built or that comes straight from
    `synth_corpus`, every token with the same text is one Token object;
    every token with the same word shares one str object, and so does every
    token with the same tag."""
    corpus = request.getfixturevalue(corpus)
    if parse:
        corpus = parse_corpus(format_corpus(corpus))
    tokens = [tok for sent in corpus.sentences for tok in sent]
    assert len(set(map(id, tokens))) == len(set(tokens)) < len(tokens)
    for field in ("word", "tag"):
        values = [getattr(tok, field) for tok in tokens]
        assert len(set(map(id, values))) == len(set(values)) < len(values)


def test_read_corpus_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    """Lines count as a text-mode read counts them: "\r\n" and "\r" end a
    line too."""
    path = tmp_path / "bad.tagged"
    path.write_bytes(b"a/A\r\nb/B\rc/C\n\xc3\xa9/D \xff/E\n")
    with pytest.raises(CorpusParseError) as exc:
        read_corpus(str(path))
    assert exc.value.line_no == 4
    assert str(exc.value) == f"{path}: line 4: byte 0xff is not UTF-8"
    path.write_bytes(b"a/A\r\nb/B\rc/C\n\xc3\xa9/D\n")
    assert read_corpus(str(path)).sentences == [
        [Token("a", "A")], [Token("b", "B")], [Token("c", "C")],
        [Token("\u00e9", "D")]]


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_read_corpus_ignores_a_leading_byte_order_mark(bom, tmp_path):
    """The mark is not part of the first word, and a byte after it that is
    not UTF-8 is named by its own value and line."""
    path = tmp_path / "c.tagged"
    path.write_bytes(bom + b"the/DT cat/NN\n")
    assert read_corpus(str(path)).sentences == [
        [Token("the", "DT"), Token("cat", "NN")]]
    for data, line_no in ((b"ab\xff", 1), (b"a/A\n\xff/B\n", 2)):
        path.write_bytes(bom + data)
        with pytest.raises(CorpusParseError) as exc:
            read_corpus(str(path))
        assert str(exc.value) == (
            f"{path}: line {line_no}: byte 0xff is not UTF-8")


def test_blank_lines_skipped():
    c = parse_corpus("a/A b/B\n\nc/C\n")
    assert len(c) == 2


words = st.text(alphabet="abcxyz", min_size=1, max_size=5)
tags = st.sampled_from(["NN", "VB", "DT", "JJ", "."])
sentences = st.lists(
    st.tuples(words, tags).map(lambda wt: Token(*wt)), min_size=1, max_size=8)
corpora = st.lists(sentences, min_size=1, max_size=10).map(Corpus)


@given(corpora)
def test_round_trip(corpus):
    assert parse_corpus(format_corpus(corpus)) == corpus


def _ten_sentences():
    return parse_corpus("\n".join(f"w{i}/T{i} x/U" for i in range(10)))


def test_cv_folds_partition():
    c = _ten_sentences()
    folds = cv_folds(c, 10, seed=0)
    assert len(folds) == 10
    assert all(len(test) == 1 for _, test in folds)
    collected = sorted(tuple(s) for _, test in folds for s in test.sentences)
    assert collected == sorted(map(tuple, c.sentences))
    for train, test in folds:
        assert len(train) + len(test) == len(c)


def test_cv_folds_errors(f1):
    with pytest.raises(ParameterError):
        cv_folds(f1, 10)  # only 3 sentences
    with pytest.raises(ParameterError):
        cv_folds(_ten_sentences(), 1)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_cv_folds_deterministic(seed, k):
    c = _ten_sentences()
    a = cv_folds(c, k, seed)
    b = cv_folds(c, k, seed)
    assert a == b
