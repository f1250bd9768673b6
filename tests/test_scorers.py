"""Gradient correctness of the trainable scorer heads."""

import numpy as np
import pytest

from charspan.scorers import LinearScorer, MLPHead, mlp_backward
from charspan.scoring import SpanRepresentation, span_representation

from fdcheck import finite_difference, relative_error

DIM = 8
LABELS = 3
HIDDEN = 4


def rep_of(ids):
    return SpanRepresentation(np.asarray(ids, dtype=np.int64), DIM)


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
    rep = rep_of([0, 3, 3, 7])
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(scorer.score(rep) @ upstream)

    numeric = finite_difference(objective, scorer.rows)
    ids, rows = scorer.backward(rep, upstream)["W"]
    analytic = np.zeros_like(scorer.rows)
    np.add.at(analytic, np.searchsorted(scorer.keys, ids), rows)
    assert relative_error(analytic, numeric) < 1e-7


def test_linear_sgd_step_batch_mean():
    scorer = LinearScorer(DIM, LABELS)
    rep = rep_of([2])
    upstream = np.array([1.0, 0.0, 0.0])
    grads = [scorer.backward(rep, upstream), scorer.backward(rep, upstream)]
    scorer.sgd_step(grads, lr=0.5, count=4)
    # id 2 got a row; two identical gradients averaged over a batch of 4
    assert scorer.keys.tolist() == [2]
    assert scorer.rows[0, 0] == pytest.approx(-0.5 * 2 / 4)
    assert scorer.rows[0, 1] == 0.0
    assert np.array_equal(scorer.score(rep), scorer.rows[0])


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
    rep = rep_of(rng.integers(0, DIM, size=4))
    upstream = rng.normal(size=LABELS)

    def objective():
        return float(head.score(rep) @ upstream)

    grads = mlp_backward(head, rep, upstream)
    for name, param in head.params().items():
        numeric = finite_difference(objective, param)
        g = grads[name]
        if name == "W1":
            analytic = np.zeros_like(param)
            np.add.at(analytic, g[0], g[1])
        else:
            analytic = g
        assert relative_error(analytic, numeric) < 1e-6, name


def test_mlp_b2_gradient_is_upstream():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0)
    upstream = np.array([0.5, -1.5, 2.0])
    grads = mlp_backward(head, rep_of([1]), upstream)
    assert np.array_equal(grads["b2"], upstream)
    assert grads["b2"] is not upstream


def test_mlp_dropout_mask_used_in_backward():
    rng = np.random.default_rng(7)
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.5,
                   rng=np.random.default_rng(8))
    rep = rep_of([0, 2, 4])
    out, cache = head.score_train(rep, rng)
    assert cache["keep"] is not None
    dropped = cache["keep"] == 0.0
    assert dropped.any()  # hidden=4 at p=0.5; seed 7 drops at least one unit
    grads = mlp_backward(head, rep, np.ones(LABELS), cache)
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
        mlp_backward(head, rep_of([0]), np.array([np.nan, 0.0, 0.0]))


def test_mlp_sgd_step_moves_all_params():
    head = MLPHead(DIM, LABELS, hidden=HIDDEN, dropout=0.0,
                   rng=np.random.default_rng(5))
    before = {k: v.copy() for k, v in head.params().items()}
    rep = rep_of([1, 4])
    grads = [head.backward(rep, np.ones(LABELS))]
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
