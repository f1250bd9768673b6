"""Gradient correctness of the trainable scorer heads."""

import numpy as np
import pytest

from charspan import scorers
from charspan.chartree import gold_span_labels, to_char_tree
from charspan.losses import label_loss
from charspan.scorers import LinearScorer, MLPHead
from charspan.scoring import (LabelVocab, SpanRepresentation, SpanScores, build_vocab,
                              span_bounds, span_representation)
from charspan.synthesis import synthesize_corpus

from fdcheck import dense_gradients, finite_difference, relative_error
from memcheck import traced_peak

DIM = 8
LABELS = 3
HIDDEN = 4


def rep_of(ids):
    return SpanRepresentation(np.asarray(ids, dtype=np.int64), DIM)


def mlp_gradients(head, rep, upstream, cache=None):
    # one span's gradients through the sentence-level backward
    grad = head.backward(rep, np.array([0]), np.asarray(upstream)[None], cache)
    return dense_gradients(grad, {n: p.shape for n, p in head.params().items()})


def full_table(rng):
    # every id of the tiny feature space has a row
    return LinearScorer(DIM, LABELS, keys=np.arange(DIM),
                        rows=rng.normal(size=(DIM, LABELS)))


def test_linear_score_is_sum_of_rows():
    scorer = full_table(np.random.default_rng(0))
    rep = rep_of([1, 5, 5])
    expected = scorer.rows[1] + 2 * scorer.rows[5]  # duplicate ids accumulate
    assert np.allclose(scorer.score(rep), expected)


def test_linear_ids_without_a_row_score_zero():
    rows = np.random.default_rng(0).normal(size=(2, LABELS))
    scorer = LinearScorer(DIM, LABELS, keys=[1, 6], rows=rows)
    assert np.array_equal(scorer.score(rep_of([1, 5, 5])), rows[0])
    assert np.array_equal(scorer.score(rep_of([0, 7])), np.zeros(LABELS))
    # a batch of spans, with -1 for a missing span-string feature
    batch = scorer.score(rep_of([[6, -1], [1, 6]]))
    assert np.array_equal(batch, [rows[1], rows[0] + rows[1]])


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
    # two spans, one with a missing feature; the loss reaches the second
    rep = rep_of([[0, 3, 3, 7], [1, 2, -1, 5]])
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(scorer.score(rep)[1] @ upstream)

    numeric = finite_difference(objective, scorer.rows)
    # the full table's keys are 0..DIM-1, so ids index its rows directly
    grad = scorer.backward(rep, np.array([1]), upstream[None])
    analytic = dense_gradients(grad, {"W": scorer.rows.shape})["W"]
    assert relative_error(analytic, numeric) < 1e-7


def test_linear_sgd_step_batch_mean():
    scorer = LinearScorer(DIM, LABELS)
    rep = rep_of([[2]])
    upstream = np.array([[1.0, 0.0, 0.0]])
    grads = [scorer.backward(rep, np.array([0]), upstream),
             scorer.backward(rep, np.array([0]), upstream)]
    scorer.sgd_step(grads, lr=0.5, count=4)
    # id 2 got a row; two identical gradients averaged over a batch of 4
    assert scorer.keys.tolist() == [2]
    assert scorer.rows[0, 0] == pytest.approx(-0.5 * 2 / 4)
    assert scorer.rows[0, 1] == 0.0
    assert np.array_equal(scorer.score(rep), scorer.rows[:1])


def test_linear_sgd_step_lands_updates_span_by_span():
    # Each weight's rounding depends on the order its updates land in:
    # sentence by sentence, then span by span, then feature by feature.
    rng = np.random.default_rng(3)
    scorer = LinearScorer(DIM, LABELS, keys=np.arange(4),
                          rows=rng.normal(size=(4, LABELS)))
    sentences = []
    for spans in (6, 300, 5):  # 300 spans: more ids than one np.subtract.at takes
        ids = rng.integers(0, 4, size=(spans, 8))  # 4 ids: every row collides
        ids[rng.random(ids.shape) < 0.2] = -1
        rows = rng.permutation(spans)[:spans - 2]
        grad = (rng.normal(size=(len(rows), LABELS))
                * 10.0 ** rng.integers(-8, 8, size=(len(rows), 1)))
        sentences.append((rep_of(ids), rows, grad))
    scale = 0.3 / 5
    assert (sentences[1][0].ids >= 0).sum() > scorers._UPDATE_ROWS
    expected = scorer.rows.copy()
    for rep, rows, grad in sentences:
        for k, g in zip(rows, grad):
            for fid in rep.ids[k][rep.ids[k] >= 0]:
                expected[fid] -= scale * g
    reordered = scorer.rows.copy()
    for rep, rows, grad in reversed(sentences):
        for k, g in zip(rows, grad):
            for fid in rep.ids[k][rep.ids[k] >= 0]:
                reordered[fid] -= scale * g
    assert not np.array_equal(expected, reordered)  # the order shows in the bits
    table = scorer.rows
    scorer.sgd_step([scorer.backward(*s) for s in sentences], lr=0.3, count=5)
    assert np.array_equal(scorer.rows, expected)
    assert scorer.rows is table  # no id missed, so no new table


def test_linear_sgd_step_registers_only_missing_ids():
    scorer = LinearScorer(DIM, LABELS, keys=[1, 3], rows=[[1.0, 0, 0], [0, 2.0, 0]])
    grad = scorer.backward(rep_of([[3, 6, -1], [1, 1, 0]]), np.array([0, 1]),
                           np.ones((2, LABELS)))
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
    rep = rep_of([0, 1])
    out = head.score(rep)
    assert out.shape == (LABELS,)
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
    rep = rep_of([rng.integers(0, DIM, size=4)])
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(head.score(rep)[0] @ upstream)

    grads = mlp_gradients(head, rep, upstream)
    for name, param in head.params().items():
        numeric = finite_difference(objective, param)
        assert relative_error(grads[name], numeric) < 1e-6, name


def test_mlp_b2_gradient_is_upstream():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    upstream = np.array([[0.5, -1.5, 2.0]])
    grad = head.backward(rep_of([[1]]), np.array([0]), upstream)
    assert np.array_equal(dense_gradients(grad, {n: p.shape for n, p in
                                                 head.params().items()})["b2"],
                          upstream[0])
    assert not np.shares_memory(grad.grad, upstream)


def test_mlp_dropout_mask_used_in_backward():
    rng = np.random.default_rng(7)
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.5,
                   rng=np.random.default_rng(8))
    rep = rep_of([[0, 2, 4]])
    out, cache = head.score_train(rep, rng)
    assert cache["keep"] is not None
    dropped = cache["keep"][0] == 0.0
    assert dropped.any()  # hidden=4 at p=0.5; seed 7 drops at least one unit
    grads = mlp_gradients(head, rep, np.ones(LABELS), cache)
    # a dropped hidden unit contributes nothing to W1's gradient
    assert not grads["b1"][dropped].any()
    # and W2 rows for dropped units are zero since h was zeroed there
    assert not grads["W2"][dropped].any()


def test_mlp_train_mode_matches_inference_without_dropout():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    rep = rep_of([3, 6])
    out, cache = head.score_train(rep, np.random.default_rng(0))
    assert np.array_equal(out, head.score(rep))
    assert cache["keep"] is None


def test_mlp_rejects_nonfinite_upstream():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        head.backward(rep_of([[0]]), np.array([0]), np.array([[np.nan, 0.0, 0.0]]))


def test_linear_rejects_nonfinite_upstream():
    scorer = LinearScorer(DIM, LABELS)
    with pytest.raises(ValueError, match="non-finite"):
        scorer.backward(rep_of([[0]]), np.array([0]), np.array([[0.0, np.inf, 0.0]]))


def test_mlp_sgd_step_moves_all_params():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0,
                   rng=np.random.default_rng(5))
    before = {k: v.copy() for k, v in head.params().items()}
    rep = rep_of([[1, 4]])
    grads = [head.backward(rep, np.array([0]), np.ones((1, LABELS)))]
    head.sgd_step(grads, lr=0.1)
    after = head.params()
    for name in ("W2", "b2", "b1"):
        assert not np.array_equal(before[name], after[name]), name
    assert not np.array_equal(before["W1"][1], after["W1"][1])
    # untouched rows stay untouched: sparse update
    untouched = [k for k in range(DIM) if k not in (1, 4)]
    assert np.array_equal(before["W1"][untouched], after["W1"][untouched])


def test_real_representation_drives_both_heads():
    rep = span_representation("中国发展", 1, 3, dim=DIM)
    assert (rep.ids < DIM).all()
    lin = LinearScorer(DIM, LABELS)
    mlp = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    assert lin.score(rep).shape == (LABELS,)
    assert np.isfinite(mlp.score(rep)).all()


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_sgd_step_memory_stays_below_the_sentence_gradient(kind):
    # A step lands a sentence's 7-8 updates per span in pieces of at most
    # _UPDATE_ROWS rows, so it never holds them all at once: its traced
    # peak stays below the sentence's own (S, L) label-loss gradient.
    tree = synthesize_corpus(1, seed=5, median_chars=122, min_chars=122,
                             max_chars=122)[0]
    chars = "".join(tree.leaves())
    gold_char = to_char_tree(tree)
    labels = build_vocab([gold_char]).labels
    vocab = LabelVocab(labels + [f"X{k}" for k in range(165 - len(labels))])
    dim = 1 << 12
    rep = span_representation(chars, *span_bounds(len(chars)), dim)
    if kind == "linear":
        scorer = LinearScorer(dim, len(vocab))
        scorer.register(np.concatenate([t.ravel() for t in rep.positions]))
    else:
        scorer = MLPHead(dim, len(vocab), hidden=64, dropout=0.0,
                         rng=np.random.default_rng(1))
    scores = SpanScores(len(chars), len(vocab), scorer.score(rep), validate=False)
    loss = label_loss(scores, gold_span_labels(gold_char), vocab)
    grad = scorer.backward(rep, loss.rows, loss.grad)
    assert len(chars) == 122
    gradient_bytes = loss.grad.nbytes
    _, peak = traced_peak(lambda: scorer.sgd_step([grad], lr=0.1))
    assert peak < gradient_bytes
