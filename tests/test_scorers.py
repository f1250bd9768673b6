"""Gradient correctness of the trainable scorer heads."""

import numpy as np
import pytest

from charspan import scoring
from charspan.chartree import gold_span_labels, to_char_tree
from charspan.losses import label_loss
from charspan.scorers import LinearScorer, MLPHead, SentenceGradient
from charspan.scoring import (LabelVocab, SpanScores, build_vocab,
                              span_representation, span_row)
from charspan.synthesis import synthesize_corpus

from fdcheck import dense_gradients, finite_difference, relative_error
from memcheck import traced_peak
from spanref import linear_score, span_ids

DIM = 8
LABELS = 3
HIDDEN = 4
# six characters: 21 spans, the two widest without a span-string feature
SENTENCE = "中国发展很好"
SPANS = len(SENTENCE) * (len(SENTENCE) + 1) // 2


def all_ids(rep):
    return rep.ids_of(np.arange(SPANS))


def mlp_gradients(head, rep, row, upstream, cache=None):
    # one span's gradients through the sentence-level backward
    grad = head.backward(rep, np.array([row]), np.asarray(upstream)[None], cache)
    return dense_gradients(grad, {n: p.shape for n, p in head.params().items()})


def full_table(rng):
    # every id of the tiny feature space has a row
    return LinearScorer(DIM, LABELS, keys=np.arange(DIM),
                        rows=rng.normal(size=(DIM, LABELS)))


def test_linear_score_is_sum_of_rows():
    scorer = full_table(np.random.default_rng(0))
    rep = span_representation(SENTENCE, DIM)
    ids = [row[row >= 0] for row in all_ids(rep)]
    # 8 ids: some span has an id twice, which adds its row twice
    assert any(len(set(row.tolist())) < len(row) for row in ids)
    expected = [scorer.rows[row].sum(axis=0) for row in ids]
    assert np.allclose(scorer.score(rep), expected)


def test_linear_ids_without_a_row_score_zero():
    dim = 1 << 20
    rep = span_representation(SENTENCE, dim)
    ids = all_ids(rep)
    used = set(ids[ids >= 0].tolist())
    key = int(span_ids(rep, 2, 3)[0])  # an id some spans have, and some not
    unused = next(k for k in range(dim) if k not in used)
    rows = np.random.default_rng(0).normal(size=(2, LABELS))
    scorer = LinearScorer(dim, LABELS, keys=sorted([key, unused]), rows=rows)
    got = scorer.score(rep)
    has = (ids == key).sum(axis=1)
    assert 0 < has.sum() < SPANS and has.max() == 1
    assert np.array_equal(got[has == 1],
                          np.tile(rows[int(key > unused)], ((has == 1).sum(), 1)))
    assert not got[has == 0].any()
    # every span, -1 of a missing span-string feature included, scores like
    # the per-span reference
    for k, row in enumerate(ids):
        assert np.array_equal(got[k], linear_score(scorer, row[row >= 0]))


def test_linear_table_rejects_bad_keys():
    with pytest.raises(ValueError, match="increasing"):
        LinearScorer(DIM, LABELS, keys=[3, 3], rows=np.zeros((2, LABELS)))
    with pytest.raises(ValueError, match="increasing"):
        LinearScorer(DIM, LABELS, keys=[DIM], rows=np.zeros((1, LABELS)))
    with pytest.raises(ValueError, match="rows"):
        LinearScorer(DIM, LABELS, keys=[1], rows=np.zeros((2, LABELS)))


def test_linear_gradient_matches_finite_difference():
    rng = np.random.default_rng(1)
    scorer = full_table(rng)
    rep = span_representation(SENTENCE, DIM)
    # the loss reaches one span, which has no span-string feature
    k = span_row(len(SENTENCE), 0, 5)
    assert (rep.ids_of(np.array([k])) == -1).any()
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(scorer.score(rep)[k] @ upstream)

    numeric = finite_difference(objective, scorer.rows)
    # the full table's keys are 0..DIM-1, so ids index its rows directly
    grad = scorer.backward(rep, np.array([k]), upstream[None])
    analytic = dense_gradients(grad, {"W": scorer.rows.shape})["W"]
    assert relative_error(analytic, numeric) < 1e-7


def test_linear_sgd_step_batch_mean():
    scorer = LinearScorer(DIM, LABELS)
    upstream = np.array([[1.0, 0.0, 0.0]])
    grads = [SentenceGradient(np.array([[2]]), upstream),
             SentenceGradient(np.array([[2]]), upstream)]
    scorer.sgd_step(grads, lr=0.5, count=4)
    # id 2 got a row; two identical gradients averaged over a batch of 4
    assert scorer.keys.tolist() == [2]
    assert scorer.rows[0, 0] == pytest.approx(-0.5 * 2 / 4)
    assert scorer.rows[0, 1] == 0.0
    assert np.array_equal(linear_score(scorer, np.array([2])), scorer.rows[0])


def test_linear_sgd_step_lands_updates_span_by_span(monkeypatch):
    # Each weight's rounding depends on the order its updates land in:
    # sentence by sentence, then span by span, then feature by feature.
    # A budget of 16 spans of 8 rows per piece cuts the 300-span sentence
    # into 19 pieces, the last one short.
    monkeypatch.setattr(scoring, "_CHUNK_VALUES", 16 * 8 * LABELS)
    rng = np.random.default_rng(3)
    scorer = LinearScorer(DIM, LABELS, keys=np.arange(4),
                          rows=rng.normal(size=(4, LABELS)))
    sentences = []
    for spans in (6, 300, 5):  # 300 spans: more than one np.subtract.at takes
        ids = rng.integers(0, 4, size=(spans, 8))  # 4 ids: every row collides
        ids[rng.random(ids.shape) < 0.2] = -1
        rows = rng.permutation(spans)[:spans - 2]
        grad = (rng.normal(size=(len(rows), LABELS))
                * 10.0 ** rng.integers(-8, 8, size=(len(rows), 1)))
        sentences.append(SentenceGradient(ids[rows], grad))
    scale = 0.3 / 5
    assert len(sentences[1].ids) > 16
    expected = scorer.rows.copy()
    for g in sentences:
        for ids, update in zip(g.ids, g.feature):
            for fid in ids[ids >= 0]:
                expected[fid] -= scale * update
    reordered = scorer.rows.copy()
    for g in reversed(sentences):
        for ids, update in zip(g.ids, g.feature):
            for fid in ids[ids >= 0]:
                reordered[fid] -= scale * update
    assert not np.array_equal(expected, reordered)  # the order shows in the bits
    table = scorer.rows
    scorer.sgd_step(sentences, lr=0.3, count=5)
    assert np.array_equal(scorer.rows, expected)
    assert scorer.rows is table  # no id missed, so no new table


def test_linear_sgd_step_registers_only_missing_ids():
    scorer = LinearScorer(DIM, LABELS, keys=[1, 3], rows=[[1.0, 0, 0], [0, 2.0, 0]])
    grad = SentenceGradient(np.array([[3, 6, -1], [1, 1, 0]]), np.ones((2, LABELS)))
    scorer.sgd_step([grad], lr=1.0)
    assert scorer.keys.tolist() == [0, 1, 3, 6]
    assert np.array_equal(scorer.rows, [[-1, -1, -1], [-1, -2, -2], [-1, 1, -1],
                                        [-1, -1, -1]])


def test_linear_register_keeps_rows():
    scorer = LinearScorer(DIM, LABELS, keys=[4], rows=[[1.0, 2.0, 3.0]])
    scorer.register([6, 1, 4, -1, 6])
    assert scorer.keys.tolist() == [1, 4, 6]
    assert np.array_equal(scorer.rows, [[0, 0, 0], [1, 2, 3], [0, 0, 0]])
    with pytest.raises(ValueError, match="below"):
        scorer.register([DIM])


def test_mlp_forward_shapes_and_relu():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    rep = span_representation(SENTENCE, DIM)
    out = head.score(rep)
    assert out.shape == (SPANS, LABELS)
    # zeroed first layer leaves only the output bias
    head.W1[:] = 0.0
    head.b1[:] = -1.0  # relu kills the hidden layer entirely
    head.b2[:] = 3.0
    assert np.allclose(head.score(rep), 3.0)


@pytest.mark.parametrize("seed", range(5))
def test_mlp_gradients_match_finite_difference(seed):
    rng = np.random.default_rng(seed)
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0,
                   rng=np.random.default_rng(seed + 100))
    chars = "".join(rng.choice(list("中国发展很好的人"), size=5))
    rep = span_representation(chars, DIM)
    k = int(rng.integers(15))
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(head.score(rep)[k] @ upstream)

    grads = mlp_gradients(head, rep, k, upstream)
    for name, param in head.params().items():
        numeric = finite_difference(objective, param)
        assert relative_error(grads[name], numeric) < 1e-6, name


def test_mlp_b2_gradient_is_upstream():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    upstream = np.array([[0.5, -1.5, 2.0]])
    grad = head.backward(span_representation(SENTENCE, DIM), np.array([0]), upstream)
    assert np.array_equal(dense_gradients(grad, {n: p.shape for n, p in
                                                 head.params().items()})["b2"],
                          upstream[0])
    assert not np.shares_memory(grad.grad, upstream)


def test_mlp_dropout_mask_used_in_backward():
    rng = np.random.default_rng(7)
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.5,
                   rng=np.random.default_rng(8))
    rep = span_representation(SENTENCE, DIM)
    out, cache = head.score_train(rep, rng)
    assert cache["keep"] is not None
    # hidden=4 at p=0.5: a span keeps all its units 1 time in 16
    k = int(np.flatnonzero((cache["keep"] == 0.0).any(axis=1))[0])
    dropped = cache["keep"][k] == 0.0
    grads = mlp_gradients(head, rep, k, np.ones(LABELS), cache)
    # a dropped hidden unit contributes nothing to W1's gradient
    assert not grads["b1"][dropped].any()
    # and W2 rows for dropped units are zero since h was zeroed there
    assert not grads["W2"][dropped].any()


def test_mlp_train_mode_matches_inference_without_dropout():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    rep = span_representation(SENTENCE, DIM)
    out, cache = head.score_train(rep, np.random.default_rng(0))
    assert np.array_equal(out, head.score(rep))
    assert cache["keep"] is None


def test_mlp_rejects_nonfinite_upstream():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        head.backward(span_representation(SENTENCE, DIM), np.array([0]),
                      np.array([[np.nan, 0.0, 0.0]]))


def test_linear_rejects_nonfinite_upstream():
    scorer = LinearScorer(DIM, LABELS)
    with pytest.raises(ValueError, match="non-finite"):
        scorer.backward(span_representation(SENTENCE, DIM), np.array([0]),
                        np.array([[0.0, np.inf, 0.0]]))


def test_mlp_sgd_step_moves_all_params():
    dim = 64  # room for rows no feature of the span has
    head = MLPHead(dim, LABELS, hidden=HIDDEN, dropout=0.0,
                   rng=np.random.default_rng(5))
    before = {k: v.copy() for k, v in head.params().items()}
    rep = span_representation(SENTENCE, dim)
    touched = sorted(set(span_ids(rep, 1, 3).tolist()))
    grads = [head.backward(rep, np.array([span_row(len(SENTENCE), 1, 3)]),
                           np.ones((1, LABELS)))]
    head.sgd_step(grads, lr=0.1)
    after = head.params()
    for name in ("W2", "b2", "b1"):
        assert not np.array_equal(before[name], after[name]), name
    for fid in touched:
        assert not np.array_equal(before["W1"][fid], after["W1"][fid]), fid
    # untouched rows stay untouched: sparse update
    untouched = [k for k in range(dim) if k not in touched]
    assert np.array_equal(before["W1"][untouched], after["W1"][untouched])


def test_real_representation_drives_both_heads():
    rep = span_representation("中国发展", dim=DIM)
    assert (rep.ids_of(np.arange(10)) < DIM).all()
    lin = LinearScorer(DIM, LABELS)
    mlp = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    assert lin.score(rep).shape == (10, LABELS)
    assert np.isfinite(mlp.score(rep)).all()


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_sgd_step_memory_stays_below_the_sentence_gradient(kind):
    # A step lands a sentence's 7-8 updates per span in pieces of whole
    # spans of at most _CHUNK_VALUES values, so it never holds them all at
    # once: its traced peak stays below the sentence's own (S, L)
    # label-loss gradient, and within a few budgets at 1,000 labels as at
    # 165 (two of them: a piece and its flat index into the table).  The
    # MLP's (H, L) W2 update of a span lands in pieces of rows too, so a
    # wide hidden layer (256 x 1,000 values) stays within them as well.
    for length, num_labels, hidden in [(122, 165, 64), (64, 1_000, 64),
                                       (64, 1_000, 256)]:
        if kind == "linear" and hidden != 64:
            continue
        tree = synthesize_corpus(1, seed=5, median_chars=length, min_chars=length,
                                 max_chars=length)[0]
        chars = "".join(tree.leaves())
        gold_char = to_char_tree(tree)
        labels = build_vocab([gold_char]).labels
        vocab = LabelVocab(labels + [f"X{k}" for k in range(num_labels - len(labels))])
        dim = 1 << 12
        rep = span_representation(chars, dim)
        if kind == "linear":
            scorer = LinearScorer(dim, len(vocab))
            scorer.register(np.concatenate([t.ravel() for t in rep]))
        else:
            scorer = MLPHead(dim, len(vocab), hidden=hidden, dropout=0.0,
                             rng=np.random.default_rng(1))
        scores = SpanScores(len(chars), len(vocab), scorer.score(rep), validate=False)
        loss = label_loss(scores, gold_span_labels(gold_char), vocab)
        grad = scorer.backward(rep, loss.rows, loss.grad)
        assert len(chars) == length
        gradient_bytes = loss.grad.nbytes
        _, peak = traced_peak(lambda: scorer.sgd_step([grad], lr=0.1))
        assert peak < gradient_bytes, num_labels
        assert peak < 3 * scoring._CHUNK_VALUES * 8, num_labels
