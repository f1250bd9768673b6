"""Span features, vocabularies, and the score file format."""

import gc
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charspan import scoring
from charspan.chartree import gold_span_labels, to_char_tree
from charspan.labels import CHAR_LABEL, NULL_LABEL, SUBWORD_LABEL
from charspan.scoring import (LabelVocab, SpanScores, build_vocab, iter_spans,
                              oracle_scores, read_score_file, score_spans,
                              span_bounds, span_representation, span_row,
                              write_scores)
from charspan.scorers import LinearScorer, MLPHead
from charspan.treebank import parse_bracketed

from memcheck import traced_peak
from spanref import linear_score, mlp_score, span_ids


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


def test_build_vocab_leaves_no_reference_cycles():
    cts = [to_char_tree(parse_bracketed(text)[0])
           for text in ("(IP (NP (NN 飞机场)) (VP (VV 走)))", "(NN 好)")]
    gc.collect()
    gc.disable()
    try:
        build_vocab(cts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_span_representation_deterministic_and_bounded():
    chars = "春眠不觉晓"
    a = span_representation(chars, dim=1 << 16)
    b = span_representation(chars, dim=1 << 16)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    ids = a.ids_of(np.arange(15))
    # -1 only for the span-string feature of span (0, 5)
    assert (ids < 1 << 16).all() and np.flatnonzero(ids < 0).tolist() == [4 * 8 + 6]
    assert not np.array_equal(span_ids(a, 1, 3), span_ids(a, 1, 4))


def test_span_representation_feature_count():
    rep = span_representation("零一二三四五六七八九", 1 << 20)
    assert len(span_ids(rep, 0, 4)) == 8  # includes "S:"
    assert len(span_ids(rep, 0, 5)) == 7  # no span-string


def test_span_representation_edges_use_sentinels():
    # a one-char sentence exercises both sentinels at once; it must differ
    # from the same char embedded in a longer sentence
    lone = span_ids(span_representation("好", dim=1 << 16), 0, 1)
    embedded = span_ids(span_representation("很好的", dim=1 << 16), 1, 2)
    assert not np.array_equal(lone, embedded)


def test_span_representation_rejects_bad_dim():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension must be positive"):
            span_representation("abc", dim)


def test_hash_is_stable_across_runs():
    # pinned ids guard the keyed hash; a change here invalidates every
    # saved checkpoint
    rep = span_representation("中国", dim=1 << 20)
    # L, B, E, R, LB, ER, S, W of span (0, 2), packed row 1
    assert rep.ids_of(np.array([span_row(2, 0, 2)]))[0].tolist() == [
        842386, 467244, 872855, 565636, 430560, 428685, 978669, 644762]


def test_feature_hash_is_blake2b_without_openssl():
    # the constructor hashlib itself hands out, imported without hashlib
    # (which loads OpenSSL's libcrypto); the ids are those of the keyed hash
    import hashlib
    assert scoring.blake2b is hashlib.blake2b
    assert scoring._feature_ids(["B:中", "LB:中国", "W:5-8"], 1 << 20).tolist() \
        == [467244, 263448, 703937]


def test_span_representation_hashes_each_distinct_feature_once():
    chars = "好好好好好好中国好好"
    with mock.patch.object(scoring, "_feature_ids", wraps=scoring._feature_ids) as spy:
        rep = span_representation(chars, dim=1 << 12)
    (features, dim), _ = spy.call_args
    assert spy.call_count == 1 and dim == 1 << 12
    features = list(features)
    assert len(features) == len(set(features))
    # every id of every table is the id of its own feature string
    ids = dict(zip(features, scoring._feature_ids(features, dim).tolist()))
    padded = [scoring.LEFT_SENTINEL, *chars, scoring.RIGHT_SENTINEL]
    for p in range(len(chars)):
        a, b = padded[p], padded[p + 1]
        assert rep.by_start[:, p].tolist() == [
            ids["L:" + a], ids["B:" + b], ids["LB:" + a + b]]
        a, b = padded[p + 1], padded[p + 2]
        assert rep.by_end[:, p].tolist() == [
            ids["E:" + a], ids["R:" + b], ids["ER:" + a + b]]
        for w in range(1, 5):
            expected = ids.get("S:" + chars[p:p + w]) if p + w <= len(chars) else -1
            assert rep.by_short[w - 1, p] == expected
    assert rep.by_width.tolist() == [-1] + [
        ids["W:" + scoring._length_bucket(w)] for w in range(1, len(chars) + 1)]
    assert all(table.dtype == np.int64 for table in rep)


def test_span_representation_batch_matches_single_spans():
    chars = "好好好好好好中国好好"  # repeated characters share feature strings
    dim = 1 << 12
    rep = span_representation(chars, dim)
    num_spans = len(chars) * (len(chars) + 1) // 2
    full = rep.ids_of(np.arange(num_spans))
    assert full.shape == (num_spans, 8)
    # row by row, the ids of the span's own feature strings
    padded = [scoring.LEFT_SENTINEL, *chars, scoring.RIGHT_SENTINEL]
    for row, (i, j) in zip(full, iter_spans(len(chars))):
        features = ["L:" + padded[i], "B:" + padded[i + 1], "E:" + padded[j],
                    "R:" + padded[j + 1], "LB:" + padded[i] + padded[i + 1],
                    "ER:" + padded[j] + padded[j + 1]]
        if j - i <= 4:
            features.append("S:" + chars[i:j])
        features.append("W:" + scoring._length_bucket(j - i))
        assert (row[6] == -1) == (j - i > 4)
        assert row[row >= 0].tolist() == scoring._feature_ids(features, dim).tolist()
    # partial, unsorted rows with repeats get the same rows
    rng = np.random.default_rng(0)
    picked = rng.integers(0, num_spans, size=40)
    assert np.array_equal(rep.ids_of(picked), full[picked])
    assert len(set(picked.tolist())) < 40 and (np.diff(picked) < 0).any()


def test_span_representation_memory_is_its_tables():
    # 600 characters: the tables hold about 12n ids, where one S-long
    # int64 array of all spans takes 1.4 MB; the representation stays below
    # the pair of them that span_bounds makes
    rng = np.random.default_rng(2)
    chars = "".join(chr(0x4E00 + int(k)) for k in rng.integers(0, 400, 600))
    num_spans = 600 * 601 // 2
    span_representation(chars[:30], 1 << 20)  # warm caches
    rep, peak = traced_peak(lambda: span_representation(chars, 1 << 20))
    assert rep.by_start.shape == (3, 600)
    assert peak < 2 * num_spans * 8, peak


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
    for n in [*range(1, 41), 57, 120, 130]:
        chars = "".join(rng.choice(list("好中国人")) for _ in range(n))
        # each span's ids, checked against its own features above
        rep = span_representation(chars, dim)
        ids = rep.ids_of(np.arange(n * (n + 1) // 2))
        for scorer, vocab in cases:
            values = score_spans(scorer, chars, vocab).values
            one_span = linear_score if isinstance(scorer, LinearScorer) else mlp_score
            for row, span, (i, j) in zip(values, ids, iter_spans(n)):
                one = one_span(scorer, span[span >= 0])
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
    rep = span_representation(chars, dim)
    batch = rep.ids_of(np.arange(len(chars) * (len(chars) + 1) // 2))
    got = scorer.score(rep)
    for k, row in enumerate(batch):
        want = dense[row[row >= 0]].sum(axis=0)
        assert np.array_equal(got[k], want)
        assert np.array_equal(np.signbit(got[k]), np.signbit(want))


def test_score_train_draws_dropout_per_span():
    # a sentence batch draws the same dropout stream as its spans one by one
    head = MLPHead(1 << 9, 3, hidden=8, dropout=0.5, rng=np.random.default_rng(4))
    chars = "中国发展"
    rep = span_representation(chars, head.dim)
    scores, cache = head.score_train(rep, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for row, (i, j) in zip(scores, iter_spans(len(chars))):
        keep = (rng.random(head.hidden) >= head.dropout) / (1.0 - head.dropout)
        assert np.array_equal(row, mlp_score(head, span_ids(rep, i, j), keep))
    assert (cache["keep"] == 0.0).any()


def test_score_spans_names_first_nonfinite_span():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    width2 = span_ids(span_representation("很好的", 1 << 20), 0, 2)[-1]  # the "W:2" bucket
    scorer = LinearScorer(1 << 20, len(vocab), keys=[width2],
                          rows=[[0.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"non-finite values at span \(0, 2\)"):
        score_spans(scorer, "很好的", vocab)
    # a NaN, or an infinity of either sign, in any later span is found too
    for bad in (np.nan, np.inf, -np.inf):
        scorer = LinearScorer(1 << 20, len(vocab), keys=[width2],
                              rows=[[0.0, 0.0, 0.0]])
        rows = scorer.score
        scorer.score = lambda rep: np.where(np.arange(6)[:, None] == 4, bad, rows(rep))
        with pytest.raises(ValueError, match=r"non-finite values at span \(1, 3\)"):
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


def _binary(text):
    """``text`` as the binary file that read_score_file reads."""
    return io.BytesIO(text.encode("utf-8"))


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
    [(_, loaded, loaded_vocab)] = list(read_score_file(_binary(text)))
    assert loaded_vocab.labels == vocab.labels
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
    blocks = list(read_score_file(_binary(buf.getvalue())))
    assert [sid for sid, _, _ in blocks] == ["a", "b"]
    assert blocks[1][1].n == 4
    assert blocks[0][2].labels == vocab.labels


def test_write_scores_bytes_match_format_17g():
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3, 1.0,
               123456789012345678.0, -2.5]
    vocab = LabelVocab([NULL_LABEL, "@1"] + [f"X{k}" for k in range(12)])
    values = np.array([special, special[::-1], special[7:] + special[:7]])
    scores = SpanScores(2, 14, values, validate=False)
    text = _round_trip(scores, vocab).getvalue()
    expected = "".join(f"{i} {j} " + " ".join(format(v, ".17g") for v in row) + "\n"
                       for (i, j), row in zip(iter_spans(2), values))
    assert text.split("\n", 2)[2] == expected + "\n"
    [(_, loaded, _)] = list(read_score_file(_binary(text)))
    # bitwise, so the sign of zero counts
    assert loaded.values.tobytes() == values.tobytes()


def test_score_file_blocks_are_read_one_at_a_time():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    good = _round_trip(SpanScores(1, 2), vocab, "a").getvalue()
    blocks = read_score_file(_binary(good + good.replace("0 1 0 0", "0 1 0 x")))
    sentence_id, scores, block_vocab = next(blocks)
    assert (sentence_id, scores.n, block_vocab.labels) == ("a", 1, vocab.labels)
    with pytest.raises(ValueError, match="^line 7: non-numeric score value$"):
        next(blocks)


def _one_span_line(header):
    """Keep the first span line of the n = 2 block below, under ``header``."""
    return lambda t: t[:t.index("\n0 2 ") + 1].replace("#scores 0 2 3", header)


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("#scores", "#score"), "missing or malformed"),
    (lambda t: t.replace("0 1 ", "1 0 ", 1), "expected span"),
    (lambda t: t.replace("#scores 0 2 3", "#scores 0 x 3"), "non-integer"),
    (lambda t: "", "empty score file"),
    (lambda t: t.replace("#labels NULL @1 NN", "#labels NULL @1"), "labels"),
    (lambda t: t.replace("#labels NULL @1 NN", "#labels NULL @1 @1"),
     "^line 2: duplicate labels in vocabulary$"),
    (lambda t: t.replace("#labels NULL @1 NN", "#labels @1 NULL NN"),
     "^line 2: the first label must be NULL, found '@1'$"),
    (lambda t: t[:t.index("#labels")], "line 1: missing '#labels' line"),
    (_one_span_line("#scores 0 2 3"), "line 1: expected 3 span lines, found 1"),
    # too large to allocate here, or, where memory overcommits, truncated
    (_one_span_line("#scores 0 100000 3"), "line 1: .*5000050000 span"),
    (_one_span_line("#scores 0 3000000000 3"),
     "line 1: header claims 4500000001500000000 spans of 3 scores, too many"),
])
def test_score_file_errors(mangle, message):
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    text = _round_trip(SpanScores(2, 3), vocab).getvalue()
    with pytest.raises(ValueError, match=message):
        list(read_score_file(_binary(mangle(text))))


def test_score_file_rejects_nonnumeric_value():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    text = ("#scores 0 1 2\n"
            "#labels NULL @1\n"
            "0 1 0.5 oops\n\n")
    with pytest.raises(ValueError, match="non-numeric"):
        list(read_score_file(_binary(text)))


def test_score_file_rejects_nonfinite_value():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    text = ("#scores 0 1 2\n"
            "#labels NULL @1\n"
            "0 1 0.5 inf\n\n")
    with pytest.raises(ValueError, match="non-finite"):
        list(read_score_file(_binary(text)))


def test_score_file_rejects_inconsistent_label_sets():
    buf = io.StringIO()
    write_scores(SpanScores(1, 2), LabelVocab([NULL_LABEL, "@1"]), buf, "a")
    write_scores(SpanScores(1, 2), LabelVocab([NULL_LABEL, "NN+@1"]), buf, "b")
    buf.seek(0)
    with pytest.raises(ValueError, match="label set differs"):
        list(read_score_file(_binary(buf.getvalue())))


def test_write_scores_refuses_nonfinite():
    vocab = LabelVocab([NULL_LABEL, "@1"])
    scores = SpanScores(1, 2)
    scores.values[span_row(1, 0, 1), 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_scores(scores, vocab, io.StringIO())


def _per_line_read(text):
    """The score of every span line of the one block in ``text``, read line
    by line with str.split and float(), or the ValueError message of the
    first bad line: the reader's reference."""
    lines = enumerate(io.StringIO(text), start=1)
    _, header = next(lines)
    _, _, n, num_labels = header.split()
    n, num_labels = int(n), int(num_labels)
    next(lines)  # "#labels"
    values = np.zeros((n * (n + 1) // 2, num_labels))
    for k, (i, j) in enumerate(iter_spans(n)):
        lineno, line = next(lines)
        parts = line.split()
        if len(parts) != 2 + num_labels:
            return (f"line {lineno}: expected 2 offsets and {num_labels} values, "
                    f"found {len(parts)} fields")
        if parts[0] != str(i) or parts[1] != str(j):
            return f"line {lineno}: expected span ({i}, {j}), found ({parts[0]}, {parts[1]})"
        try:
            values[k] = [float(v) for v in parts[2:]]
        except ValueError:
            return f"line {lineno}: non-numeric score value"
        if not np.isfinite(values[k]).all():
            return f"line {lineno}: non-finite score value"
    return values


def _read_one_block(text, chunk_values):
    """The values of the one block in ``text``, or the message of the
    ValueError the reader raises, read in chunks of ``chunk_values``."""
    with mock.patch.object(scoring, "_CHUNK_VALUES", chunk_values):
        try:
            [(_, scores, _)] = list(read_score_file(_binary(text)))
        except ValueError as e:
            return str(e)
    return scores.values


def _assert_same_read(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()  # bitwise: the sign of zero counts


_ODD_VALUES = ["abc", "nan", "inf", "-inf", "1_0", "+.5", "5.", "-0.0", "0.5 #x",
               "#x", "1e400", "1e-400", "0x10", "١", "0.5\x00"]
_SEPARATORS = ["\t", "\xa0", "\u3000", "\x1c", "  ", " \t ", "\x0b"]


@st.composite
def _mutated_blocks(draw):
    """A write_scores block of n <= 12 spans' lines at L <= 8, one span line
    of it mutated, and a chunk size of a few lines or less than one line."""
    n = draw(st.integers(1, 12))
    num_labels = draw(st.integers(1, 8))
    rows = n * (n + 1) // 2
    # finite values of every magnitude, with zeros of both signs and subnormals
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=rows * num_labels) * 10.0 ** rng.integers(
        -320, 300, size=rows * num_labels)
    special = rng.random(rows * num_labels) < 0.2
    values[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0], size=special.sum())
    vocab = LabelVocab([NULL_LABEL] + [f"X{k}" for k in range(1, num_labels)])
    text = _round_trip(SpanScores(n, num_labels, values.reshape(rows, num_labels),
                                  validate=False), vocab).getvalue()
    lines = text.split("\n")
    k = 2 + draw(st.integers(0, rows - 1))
    fields = lines[k].split(" ")
    kind = draw(st.sampled_from(["drop", "add", "offset", "zero-padded offset",
                                 "value", "comment", "separator", "none"]))
    if kind == "comment":
        fields.append(draw(st.sampled_from(["#x", "#", "# 1"])))
    elif kind == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "add":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["0.5", "x"])))
    elif kind == "offset":
        fields[draw(st.integers(0, 1))] = str(draw(st.integers(-1, n + 1)))
    elif kind == "zero-padded offset":
        at = draw(st.integers(0, 1))
        fields[at] = "0" + fields[at]
    elif kind == "value":
        fields[draw(st.integers(2, len(fields) - 1))] = draw(st.sampled_from(_ODD_VALUES))
    if kind == "separator":
        at = draw(st.integers(0, len(fields) - 2))
        fields[at:at + 2] = [fields[at] + draw(st.sampled_from(_SEPARATORS)) + fields[at + 1]]
        if draw(st.booleans()):
            fields[-1] += draw(st.sampled_from(_SEPARATORS))  # trailing
    lines[k] = " ".join(fields)
    chunk_values = draw(st.integers(1, 3 * num_labels))
    return "\n".join(lines), chunk_values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_mutated_blocks())
def test_chunked_read_equals_the_per_line_reference(case):
    text, chunk_values = case
    _assert_same_read(_read_one_block(text, chunk_values), _per_line_read(text))


def _chunked_block():
    """The lines of a block at n = 4 and L = 2, whose span (i, j) line holds
    the values 10 i + j and -(10 i + j); read in chunks of 6 values (3
    lines), the second chunk is file lines 6-8, spans (0, 4), (1, 2) and
    (1, 3)."""
    vocab = LabelVocab([NULL_LABEL, "X1"])
    values = np.array([[10.0 * i + j, -10.0 * i - j] for i, j in iter_spans(4)])
    return _round_trip(SpanScores(4, 2, values), vocab).getvalue().split("\n")


def _spoil(lines, replaced):
    """``lines`` joined, with line k (from 1) replaced by ``replaced[k]``."""
    return "\n".join(replaced.get(k, line) for k, line in enumerate(lines, start=1))


@pytest.mark.parametrize("lineno, line, message", [
    (6, "0 4 4 x", "line 6: non-numeric score value"),   # first line of chunk 2
    (8, "1 3 13 inf", "line 8: non-finite score value"),  # last line of chunk 2
    (6, "0 5 4 -4", r"line 6: expected span \(0, 4\), found \(0, 5\)"),
    (8, "1 3 13", "line 8: expected 2 offsets and 2 values, found 3 fields"),
    (8, "1 3 13 -13 #x", "line 8: expected 2 offsets and 2 values, found 5 fields"),
])
def test_fault_at_a_chunk_edge(lineno, line, message):
    lines = _chunked_block()
    with mock.patch.object(scoring, "_CHUNK_VALUES", 6):
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(read_score_file(_binary(_spoil(lines, {lineno: line}))))


def test_earlier_of_two_faults_in_a_chunk_wins():
    lines = _chunked_block()
    text = _spoil(lines, {7: "1 2 12 nan", 8: "1 3 x -13"})
    with mock.patch.object(scoring, "_CHUNK_VALUES", 6):
        with pytest.raises(ValueError, match="^line 7: non-finite score value$"):
            list(read_score_file(_binary(text)))
    text = _spoil(lines, {6: "0 4 4 x", 7: "1 9 12 -12"})
    with mock.patch.object(scoring, "_CHUNK_VALUES", 6):
        with pytest.raises(ValueError, match="^line 6: non-numeric score value$"):
            list(read_score_file(_binary(text)))


def test_truncated_chunk_reports_an_earlier_bad_line_first():
    lines = _chunked_block()
    cut = lines[:7]  # the header and spans up to (1, 2): chunk 2 has two lines
    with mock.patch.object(scoring, "_CHUNK_VALUES", 6):
        with pytest.raises(ValueError, match="^line 1: expected 10 span lines, found 5$"):
            list(read_score_file(_binary(_spoil(cut, {}))))
        with pytest.raises(ValueError, match="^line 6: non-numeric score value$"):
            list(read_score_file(_binary(_spoil(cut, {6: "0 4 4 x"}))))


def test_chunks_fill_the_rows_in_order():
    text = "\n".join(_chunked_block())
    want = _per_line_read(text)
    for chunk_values in (1, 2, 5, 6, 7, 19, 20, 21, 1 << 16):
        _assert_same_read(_read_one_block(text, chunk_values), want)


def test_loadtxt_parses_like_float():
    # the fast path reads values with np.loadtxt; a numpy whose parser
    # rounds differently from float() must fail here
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3, 1.0,
               123456789012345678.0, -2.5]
    texts = [format(v, ".17g") for v in special]
    texts += ["-0", "+.5", "5.", "1e-400", "-1e-400", "4.9406564584124654e-324",
              "2.4703282292062328e-324", "0.30000000000000004", "9007199254740993"]
    got = np.loadtxt([" ".join(texts)], dtype=np.float64, comments=None, ndmin=2)
    want = np.array([[float(t) for t in texts]])
    assert got.tobytes() == want.tobytes()
