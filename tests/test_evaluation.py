import pytest

from memtag import ib
from memtag.corpus import Corpus, cv_folds, parse_corpus
from memtag.errors import ParameterError
from memtag.evaluation import (EvalReport, compare_algorithms, cross_validate,
                               curve_tsv, evaluate, gains_tsv,
                               known_eval_queries, learning_curve)
from memtag.interning import Interner
from memtag.metrics import information_gains
from memtag.taggen import (TaggerConfig, build_lexicon, extract_known_cases,
                           train)


def test_evaluate_f1_on_itself(f1):
    model = train(f1)
    report = evaluate(model, f1)
    assert report.accuracy_total == 1.0
    assert report.total == 18
    assert report.unknown_total == 0
    assert report.words_per_second > 0


@pytest.mark.parametrize("report, table, tsv", [
    (EvalReport(907, 868, 93, 61, 0.5),
     "          Accuracy  Percentage\n"
     "Known         95.7        90.7\n"
     "Unknown       65.6         9.3\n"
     "Total         92.9       100.0",
     "category\taccuracy\tpercentage\n"
     "known\t0.957001\t0.907000\n"
     "unknown\t0.655914\t0.093000\n"
     "total\t0.929000\t1.000000"),
    (EvalReport(0, 0, 0, 0, 0.0),
     "          Accuracy  Percentage\n"
     "Known        100.0       100.0\n"
     "Unknown      100.0         0.0\n"
     "Total        100.0       100.0",
     "category\taccuracy\tpercentage\n"
     "known\t1.000000\t1.000000\n"
     "unknown\t1.000000\t0.000000\n"
     "total\t1.000000\t1.000000"),
])
def test_report_table_and_tsv_are_pinned(report, table, tsv):
    assert report.table() == table
    assert report.tsv() == tsv


def test_evaluate_all_unseen_vocabulary(f1):
    model = train(f1)
    test = parse_corpus("zzyx/NN qqq/VBD pprr/NN")
    report = evaluate(model, test)
    assert report.unknown_fraction == 1.0
    assert report.known_total == 0


def test_report_weighted_mean_identity(f1, synth_small):
    model = train(synth_small)
    report = evaluate(model, Corpus(synth_small.sentences[:100]))
    assert report.correct == report.known_correct + report.unknown_correct
    assert report.total == report.known_total + report.unknown_total
    lhs = report.accuracy_total * report.total
    rhs = (report.accuracy_known * report.known_total
           + report.accuracy_unknown * report.unknown_total)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_evaluate_empty_corpus(f1):
    model = train(f1)
    with pytest.raises(ParameterError):
        evaluate(model, Corpus([]))


def test_gold_left_context_changes_d_slots_only(synth_small):
    model = train(synth_small)
    rep_greedy = evaluate(model, synth_small)
    rep_gold = evaluate(model, synth_small, gold_left_context=True)
    assert rep_gold.accuracy_total >= rep_greedy.accuracy_total
    assert rep_gold.total == rep_greedy.total


def _unambiguous_corpus():
    # every type bears exactly one tag: perfectly learnable
    lines = []
    for i in range(24):
        lines.append(" ".join(f"w{j}/T{j % 5}" for j in range(i % 4 + 2)))
    return parse_corpus("\n".join(lines))


def test_cross_validate_perfect_corpus():
    result = cross_validate(_unambiguous_corpus(), k=4, seed=0)
    assert result.mean == 1.0
    assert result.stddev == 0.0
    assert len(result.reports) == 4


def test_cross_validate_duplicated_corpus_shrinks_stddev(f1):
    base = parse_corpus("\n".join(
        "the/DT cat/NN saw/VBD the/DT saw/NN ./." if i % 2 else
        "a/DT saw/NN cuts/VBZ the/DT wood/NN ./." for i in range(6)))
    duplicated = Corpus([s for s in base.sentences for _ in range(10)])
    single = cross_validate(base, k=3, seed=1)
    dup = cross_validate(duplicated, k=3, seed=1)
    assert dup.stddev <= single.stddev + 1e-9
    assert dup.stddev < 0.02


def test_cross_validate_too_few_sentences(f1):
    with pytest.raises(ParameterError):
        cross_validate(f1, k=10)


def test_folds_evaluated_in_fold_order(synth_small):
    sub = Corpus(synth_small.sentences[:120])
    folds = cv_folds(sub, 3, 2)

    def counts(report):
        return (report.known_total, report.known_correct,
                report.unknown_total, report.unknown_correct)

    result = cross_validate(sub, k=3, seed=2)
    assert [counts(r) for r in result.reports] == [
        counts(evaluate(train(tr), te)) for tr, te in folds]


def test_learning_curve_full_size_equals_cross_validate(synth_small):
    sub = Corpus(synth_small.sentences[:150])
    points = learning_curve(sub, [sub.token_count], k=3, seed=0)
    assert len(points) == 1
    cv = cross_validate(sub, k=3, seed=0)
    assert points[0].mean_accuracy == cv.mean
    assert points[0].stddev == cv.stddev
    assert points[0].train_size == sub.token_count


def test_learning_curve_parameter_errors(synth_small):
    with pytest.raises(ParameterError):
        learning_curve(synth_small, [], k=3)
    with pytest.raises(ParameterError):
        learning_curve(synth_small, [synth_small.token_count + 1], k=3)
    with pytest.raises(ParameterError):
        learning_curve(synth_small, [0], k=3)


def test_curve_tsv_format(synth_small):
    sub = Corpus(synth_small.sentences[:100])
    points = learning_curve(sub, [400, sub.token_count], k=2, seed=0)
    tsv = curve_tsv(points)
    lines = tsv.splitlines()
    assert lines[0] == "size\tmean\tstddev"
    assert len(lines) == 3


def test_compare_algorithms_and_same_split(synth_small):
    train_c = Corpus(synth_small.sentences[:300])
    test_c = Corpus(synth_small.sentences[300:360])
    accs = compare_algorithms(train_c, test_c)
    assert set(accs) == {"ib1", "ib1ig", "igtree"}
    for v in accs.values():
        assert 0.0 <= v <= 1.0
    again = compare_algorithms(train_c, test_c)
    assert accs == again


def test_compare_algorithms_indexed_equals_brute_force(synth_small,
                                                      monkeypatch):
    """One indexed call per distinct query and algorithm, and the same
    accuracies as the index-free brute-force scan."""
    train_c = Corpus(synth_small.sentences[:300])
    test_c = Corpus(synth_small.sentences[300:360])
    calls = {"classify_ib1": [], "classify_ib1ig": []}
    for name, log in calls.items():
        def counted(*args, _real=getattr(ib, name), _log=log, **kwargs):
            _log.append((args[-1], kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(ib, name, counted)
    accs = compare_algorithms(train_c, test_c)
    monkeypatch.undo()

    config = TaggerConfig()
    interner = Interner()
    lexicon = build_lexicon(train_c, interner, config.threshold)
    base = extract_known_cases(train_c, lexicon, interner, config)
    weights = information_gains(base)
    queries = known_eval_queries(test_c, lexicon, interner, config)
    distinct = {q for q, _ in queries}
    assert any(q not in base.patterns for q in distinct)
    for log in calls.values():
        assert sorted(q for q, _ in log) == sorted(distinct)
        assert all(isinstance(kw.get("index"), ib.OverlapIndex)
                   for _, kw in log)

    classify = {"ib1": lambda q: ib.classify_ib1(base, q),
                "ib1ig": lambda q: ib.classify_ib1ig(base, weights, q)}
    for algo, fn in classify.items():
        preds = {q: fn(q) for q in distinct}
        correct = sum(preds[q] == gold for q, gold in queries)
        assert accs[algo] == correct / len(queries)


def test_compare_on_folds(synth_small):
    sub = Corpus(synth_small.sentences[:200])
    per_fold = [compare_algorithms(tr, te) for tr, te in cv_folds(sub, 3, 0)]
    assert len(per_fold) == 3
    for accs in per_fold:
        assert set(accs) == {"ib1", "ib1ig", "igtree"}


def test_gains_tsv(f1):
    model = train(f1)
    tsv = gains_tsv(model.known_weights)
    lines = tsv.splitlines()
    assert lines[0] == "feature_index\tgain"
    assert len(lines) == 5
