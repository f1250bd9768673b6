"""Span features, vocabularies, and the score file format."""

import io

import numpy as np
import pytest

from charspan.chartree import gold_span_labels, to_char_tree
from charspan.labels import CHAR_LABEL, NULL_LABEL, SUBWORD_LABEL
from charspan.scoring import (LabelVocab, SpanScores, build_vocab, iter_spans,
                              oracle_scores, read_score_file, score_spans,
                              span_bounds, span_representation, span_row,
                              write_scores)
from charspan.scorers import LinearScorer, MLPHead
from charspan.treebank import parse_bracketed


def test_iter_spans_lexicographic():
    assert list(iter_spans(3)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(list(iter_spans(8))) == 8 * 9 // 2


def test_span_rows_follow_iter_spans():
    for n in range(1, 30):
        spans = list(iter_spans(n))
        starts, ends = span_bounds(n)
        assert list(zip(starts.tolist(), ends.tolist())) == spans
        assert [span_row(n, i, j) for i, j in spans] == list(range(len(spans)))
        assert np.array_equal(span_row(n, starts, ends), np.arange(len(spans)))


def test_label_vocab_requires_null_first():
    v = LabelVocab([NULL_LABEL, "@1", "NN"])
    assert len(v) == 3
    assert v.null_id == 0
    assert v[2] == "NN" and v.index["NN"] == 2
    assert "NN" in v and "VP" not in v
    with pytest.raises(ValueError, match="id 0"):
        LabelVocab(["NN", NULL_LABEL])
    with pytest.raises(ValueError, match="duplicate"):
        LabelVocab([NULL_LABEL, "NN", "NN"])


def test_build_vocab_order_and_required_labels():
    trees = parse_bracketed("(IP (NN 我) (VV 走))")
    cts = [to_char_tree(t) for t in trees]
    vocab = build_vocab(cts)
    # first-appearance order after the null label, @2 appended because no
    # word here is longer than two characters
    assert vocab.labels[0] == NULL_LABEL
    assert CHAR_LABEL in vocab.index and SUBWORD_LABEL in vocab.index
    assert vocab.labels.index("IP") < vocab.labels.index("VV+@1")
    with pytest.raises(ValueError, match="empty"):
        build_vocab([])


def test_span_representation_deterministic_and_bounded():
    chars = "春眠不觉晓"
    a = span_representation(chars, 1, 3, dim=1 << 16)
    b = span_representation(chars, 1, 3, dim=1 << 16)
    assert np.array_equal(a.ids, b.ids)
    assert a.dim == 1 << 16
    assert ((a.ids >= 0) & (a.ids < a.dim)).all()
    c = span_representation(chars, 1, 4, dim=1 << 16)
    assert not np.array_equal(a.ids, c.ids)


def test_span_representation_feature_count():
    chars = "零一二三四五六七八九"
    assert len(span_representation(chars, 0, 4).ids) == 8  # includes "S:"
    assert len(span_representation(chars, 0, 5).ids) == 7  # no span-string


def test_span_representation_edges_use_sentinels():
    # a one-char sentence exercises both sentinels at once; it must differ
    # from the same char embedded in a longer sentence
    lone = span_representation("好", 0, 1, dim=1 << 16)
    embedded = span_representation("很好的", 1, 2, dim=1 << 16)
    assert not np.array_equal(lone.ids, embedded.ids)


def test_span_representation_rejects_bad_span():
    with pytest.raises(ValueError, match="out of range"):
        span_representation("abc", 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        span_representation("abc", 0, 4)


def test_hash_is_stable_across_runs():
    # pinned ids guard the keyed hash; a change here invalidates every
    # saved checkpoint
    rep = span_representation("中国", 0, 2, dim=1 << 20)
    assert rep.ids.tolist() == [int(x) for x in rep.ids]
    again = span_representation("中国", 0, 2, dim=1 << 20)
    assert rep.ids.tolist() == again.ids.tolist()


def test_span_representation_batch_matches_single_spans():
    chars = "好好好好好好中国好好"  # repeated characters share feature strings
    starts, ends = np.triu_indices(len(chars) + 1, k=1)
    batch = span_representation(chars, starts, ends, dim=1 << 12)
    assert batch.ids.shape == (len(starts), 8)
    for row, i, j in zip(batch.ids, starts.tolist(), ends.tolist()):
        single = span_representation(chars, i, j, dim=1 << 12).ids
        assert (row[6] == -1) == (j - i > 4)
        assert np.array_equal(row[row >= 0], single)


def test_span_representation_batch_rejects_bad_span():
    with pytest.raises(ValueError, match=r"span \(2, 2\) out of range"):
        span_representation("abc", np.array([0, 2]), np.array([1, 2]))
    with pytest.raises(ValueError, match="equal-length"):
        span_representation("abc", np.array([0, 1]), np.array([1]))


def test_span_scores_validation():
    s = SpanScores(3, 4)
    assert s.values.shape == (6, 4)
    bad = np.zeros((6, 4))
    bad[span_row(3, 0, 2), 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SpanScores(3, 4, bad)
    with pytest.raises(ValueError, match="shape"):
        SpanScores(3, 4, np.zeros((3, 3, 4)))
    with pytest.raises(ValueError, match="shape"):
        SpanScores(3, 4, np.zeros((4, 4, 4)))  # no dense layout
    with pytest.raises(ValueError, match="at least 1"):
        SpanScores(0, 4)


def test_span_scores_validation_names_first_span():
    bad = np.zeros((5, 5, 2))
    bad[2, 3, 0] = np.nan
    bad[1, 4, 1] = -np.inf
    bad[0, 4, 1] = np.inf
    bad[3, 1, 0] = bad[2, 2, 1] = np.nan  # below the triangle: never read
    rows = np.triu_indices(5, k=1)
    with pytest.raises(ValueError, match=r"span \(0, 4\)$"):
        SpanScores(4, 2, bad[rows])
    bad[0, 4, 1] = 0.0
    with pytest.raises(ValueError, match=r"span \(1, 4\)$"):
        SpanScores(4, 2, bad[rows])
    bad[1, 4, 1] = bad[2, 3, 0] = 0.0
    assert SpanScores(4, 2, bad[rows]).values is not None


def test_score_spans_zero_scorer():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    scorer = LinearScorer(1 << 10, len(vocab))
    scores = score_spans(scorer, "很好", vocab)
    assert scores.n == 2
    assert not scores.values.any()
    with pytest.raises(ValueError, match="rng"):
        score_spans(scorer, "很好", vocab, train_mode=True)


def test_score_spans_equals_per_span_scores():
    # one batch per sentence must score every span bit for bit like the
    # span alone, sign of zero included
    rng = np.random.default_rng(11)
    dim = 1 << 9  # small enough that feature ids collide
    cases = []
    for labels in (3, 12):
        rows = rng.normal(size=(dim // 2, labels))
        rows[rng.random(rows.shape) < 0.2] = -0.0
        vocab = LabelVocab([NULL_LABEL] + [f"X{k}" for k in range(1, labels)])
        cases.append((LinearScorer(dim, labels, keys=np.arange(0, dim, 2),
                                   rows=rows), vocab))
        cases.append((MLPHead(dim, labels, hidden=16, dropout=0.0,
                              rng=np.random.default_rng(labels)), vocab))
    for n in range(1, 41):
        chars = "".join(rng.choice(list("好中国人")) for _ in range(n))
        reps = {ij: span_representation(chars, *ij, dim) for ij in iter_spans(n)}
        for scorer, vocab in cases:
            values = score_spans(scorer, chars, vocab).values
            for (i, j), rep in reps.items():
                one = scorer.score(rep)
                row = values[span_row(n, i, j)]
                assert np.array_equal(row, one), (n, i, j)
                assert np.array_equal(np.signbit(row), np.signbit(one)), (n, i, j)


def test_linear_table_scores_like_the_dense_matrix():
    # the compact table answers exactly what the dense (dim, L) matrix
    # summed with numpy did, collisions included
    rng = np.random.default_rng(5)
    dim, labels = 64, 12
    dense = rng.normal(size=(dim, labels))
    dense[rng.random(dim) < 0.5] = 0.0
    dense[3] = -0.0  # stored as no row at all
    kept = np.flatnonzero(np.any(dense != 0.0, axis=1))
    scorer = LinearScorer(dim, labels, keys=kept, rows=dense[kept])
    chars = "春眠不觉晓处处闻啼鸟"
    starts, ends = np.triu_indices(len(chars) + 1, k=1)
    batch = span_representation(chars, starts, ends, dim).ids
    got = scorer.score(span_representation(chars, starts, ends, dim))
    for k, row in enumerate(batch):
        want = dense[row[row >= 0]].sum(axis=0)
        assert np.array_equal(got[k], want)
        assert np.array_equal(np.signbit(got[k]), np.signbit(want))


def test_score_spans_train_mode_draws_dropout_per_span():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    head = MLPHead(1 << 9, len(vocab), hidden=8, dropout=0.5,
                   rng=np.random.default_rng(4))
    chars = "中国发展"
    scores = score_spans(head, chars, vocab, train_mode=True,
                         rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for i, j in iter_spans(len(chars)):
        row, _ = head.score_train(span_representation(chars, i, j, head.dim), rng)
        assert np.array_equal(scores.values[span_row(len(chars), i, j)], row)


def test_score_spans_names_first_nonfinite_span():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    width2 = span_representation("很好的", 0, 2).ids[-1]  # the "W:2" bucket
    scorer = LinearScorer(1 << 20, len(vocab), keys=[width2],
                          rows=[[0.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"non-finite values at span \(0, 2\)"):
        score_spans(scorer, "很好的", vocab)


def test_score_spans_label_count_mismatch():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    scorer = LinearScorer(1 << 10, 5)
    with pytest.raises(ValueError, match="labels"):
        score_spans(scorer, "很好", vocab)


def test_oracle_scores():
    ct = to_char_tree(parse_bracketed("(NN 中国)")[0])
    gold = gold_span_labels(ct)
    vocab = build_vocab([ct])
    scores = oracle_scores(gold, vocab)
    assert scores.values[span_row(2, 0, 2), vocab.index["NN"]] == 1.0
    assert scores.values[span_row(2, 0, 1), vocab.index["@1"]] == 1.0
    assert scores.values[span_row(2, 0, 2)].sum() == 1.0


def test_oracle_scores_rejects_unknown_label():
    ct = to_char_tree(parse_bracketed("(NN 中国)")[0])
    gold = gold_span_labels(ct)
    vocab = LabelVocab([NULL_LABEL, "@1", "@2"])
    with pytest.raises(ValueError, match="missing from vocabulary"):
        oracle_scores(gold, vocab)


def _round_trip(scores, vocab, sentence_id="0"):
    buf = io.StringIO()
    write_scores(scores, vocab, buf, sentence_id=sentence_id)
    buf.seek(0)
    return buf


def test_score_file_round_trip_exact():
    rng = np.random.default_rng(3)
    vocab = LabelVocab([NULL_LABEL, "@1", "NN", "IP"])
    values = rng.normal(0, 10, (4, 4, 4))
    scores = SpanScores(3, 4, values[np.triu_indices(4, k=1)], validate=False)
    buf = _round_trip(scores, vocab, sentence_id="s7")
    text = buf.getvalue()
    assert text.startswith("#scores s7 3 4\n#labels NULL @1 NN IP\n")
    assert text.endswith("\n\n")
    blocks, loaded_vocab = read_score_file(io.StringIO(text))
    assert loaded_vocab.labels == vocab.labels
    loaded = blocks[0][1]
    # %.17g is lossless for doubles
    for i, j in iter_spans(3):
        k = span_row(3, i, j)
        assert np.array_equal(loaded.values[k], scores.values[k])


def test_score_file_multiple_sentences():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    buf = io.StringIO()
    write_scores(SpanScores(2, 3), vocab, buf, sentence_id="a")
    write_scores(SpanScores(4, 3), vocab, buf, sentence_id="b")
    buf.seek(0)
    blocks, v = read_score_file(buf)
    assert [sid for sid, _ in blocks] == ["a", "b"]
    assert blocks[1][1].n == 4
    assert v.labels == vocab.labels


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("#scores", "#score"), "missing or malformed"),
    (lambda t: t.replace("0 1 ", "1 0 ", 1), "expected span"),
    (lambda t: t.replace("#scores 0 2 3", "#scores 0 x 3"), "non-integer"),
    (lambda t: "", "empty score file"),
    (lambda t: t.replace("#labels NULL @1 NN", "#labels NULL @1"), "labels"),
])
def test_score_file_errors(mangle, message):
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    text = _round_trip(SpanScores(2, 3), vocab).getvalue()
    with pytest.raises(ValueError, match=message):
        read_score_file(io.StringIO(mangle(text)))


def test_score_file_rejects_nonnumeric_value():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    text = ("#scores 0 1 2\n"
            "#labels NULL @1\n"
            "0 1 0.5 oops\n\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_score_file(io.StringIO(text))


def test_score_file_rejects_nonfinite_value():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    text = ("#scores 0 1 2\n"
            "#labels NULL @1\n"
            "0 1 0.5 inf\n\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_score_file(io.StringIO(text))


def test_score_file_rejects_inconsistent_label_sets():
    buf = io.StringIO()
    write_scores(SpanScores(1, 2), LabelVocab([NULL_LABEL, "@1"]), buf, "a")
    write_scores(SpanScores(1, 2), LabelVocab([NULL_LABEL, "NN+@1"]), buf, "b")
    buf.seek(0)
    with pytest.raises(ValueError, match="label set differs"):
        read_score_file(buf)


def test_write_scores_refuses_nonfinite():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    scores = SpanScores(1, 2)
    scores.values[span_row(1, 0, 1), 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_scores(scores, vocab, io.StringIO())
