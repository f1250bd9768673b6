"""Label cross-entropy and tree hinge losses, with numeric gradient checks."""

import math

import numpy as np
import pytest

from charspan.chartree import gold_span_labels, to_char_tree
from charspan.decoder import tree_score
from charspan.decoder import DecodeConfig, brute_force_decode, cky_decode
from charspan.labels import NULL_LABEL
from charspan.losses import label_loss, tree_loss
from charspan.scoring import (LabelVocab, SpanScores, build_vocab, iter_spans,
                              oracle_scores, span_bounds, span_row)
from charspan.synthesis import synthesize_corpus
from charspan.treebank import parse_bracketed

from memcheck import traced_peak

VOCAB = LabelVocab([NULL_LABEL, "@1", "VV+@1", "NN", "@2", "IP"])


def gold_word(text="(NN 飞机场)"):
    ct = to_char_tree(parse_bracketed(text)[0])
    return ct, gold_span_labels(ct)


def random_scores(rng, n, num_labels=len(VOCAB), scale=1.0):
    values = rng.normal(0.0, scale, (n + 1, n + 1, num_labels))
    return SpanScores(n, num_labels, values[np.triu_indices(n + 1, k=1)],
                      validate=False)


def dense(loss, scores):
    # the loss's gradient over every score entry, zero on rows it omits
    out = np.zeros_like(scores.values)
    out[loss.rows] = loss.grad
    return out


def apply_gradient(scores, loss, step):
    out = scores.copy()
    out.values[loss.rows] -= step * loss.grad
    return out


def numeric_gradient(loss_fn, scores, eps=1e-6):
    grad = np.zeros_like(scores.values)
    for k in range(len(scores.values)):
        for l in range(scores.num_labels):
            saved = scores.values[k, l]
            scores.values[k, l] = saved + eps
            hi = loss_fn(scores).value
            scores.values[k, l] = saved - eps
            lo = loss_fn(scores).value
            scores.values[k, l] = saved
            grad[k, l] = (hi - lo) / (2 * eps)
    return grad


def test_label_loss_uniform_scores_is_span_count_times_log_l():
    ct, gold = gold_word()
    scores = SpanScores(3, len(VOCAB))
    loss = label_loss(scores, gold, VOCAB)
    assert loss.value == pytest.approx(6 * math.log(len(VOCAB)))
    loss_gold = label_loss(scores, gold, VOCAB, spans="gold")
    assert loss_gold.value == pytest.approx(5 * math.log(len(VOCAB)))


def test_label_loss_vanishes_on_confident_scores():
    ct, gold = gold_word()
    scores = SpanScores(3, len(VOCAB))
    for i, j in iter_spans(3):
        scores.values[span_row(3, i, j), VOCAB.index[gold.label_of(i, j)]] = 60.0
    loss = label_loss(scores, gold, VOCAB)
    assert loss.value < 1e-12
    assert loss.rows.tolist() == list(range(6))
    assert np.abs(loss.grad).max() < 1e-12


def test_label_loss_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(4)
    ct, gold = gold_word()
    scores = random_scores(rng, 3)
    loss = label_loss(scores, gold, VOCAB)
    assert loss.rows.tolist() == list(range(6))
    for row in loss.grad:
        assert abs(sum(row.tolist())) < 1e-12


def test_label_loss_matches_finite_difference():
    rng = np.random.default_rng(8)
    ct, gold = gold_word()
    scores = random_scores(rng, 3)
    loss = label_loss(scores, gold, VOCAB)
    numeric = numeric_gradient(lambda s: label_loss(s, gold, VOCAB), scores)
    assert np.allclose(dense(loss, scores), numeric, rtol=0.0, atol=1e-4)


def _label_loss_span_by_span(scores, gold, vocab, spans):
    # the per-span arithmetic label_loss must reproduce bit for bit
    span_list = sorted(gold.entries) if spans == "gold" else iter_spans(scores.n)
    total = 0.0
    rows, grad = [], []
    for i, j in span_list:
        target = vocab.index[gold.label_of(i, j)]
        row = scores.values[span_row(scores.n, i, j)]
        m = row.max()
        lse = m + np.log(np.exp(row - m).sum())
        total += float(lse - row[target])
        p = np.exp(row - lse)
        p[target] -= 1.0
        rows.append(span_row(scores.n, i, j))
        grad.append(p)
    return total, rows, np.array(grad)


@pytest.mark.parametrize("spans", ["all", "gold"])
def test_label_loss_matches_span_by_span_arithmetic_bitwise(spans):
    rng = np.random.default_rng(12)
    texts = ["(NN 飞机场)", "(IP (NP (NN 中国)) (VP (VV 发展) (NN 经济)))"]
    cts = [to_char_tree(parse_bracketed(t)[0]) for t in texts]
    vocab = build_vocab(cts)
    for ct in cts:
        gold = gold_span_labels(ct)
        for scale in (0.1, 1.0, 30.0):
            scores = random_scores(rng, gold.n, len(vocab), scale)
            loss = label_loss(scores, gold, vocab, spans=spans)
            total, rows, grad = _label_loss_span_by_span(scores, gold, vocab, spans)
            assert loss.value == total
            assert loss.rows.tolist() == rows
            assert np.array_equal(loss.grad, grad)


def test_label_loss_holds_one_score_sized_array():
    # the softmax is computed in the (S, L) array it returns as the gradient
    ct = to_char_tree(synthesize_corpus(1, seed=4, median_chars=60, min_chars=60,
                                        max_chars=60)[0])
    labels = build_vocab([ct]).labels
    vocab = LabelVocab(labels + [f"X{k}" for k in range(100 - len(labels))])
    scores = random_scores(np.random.default_rng(5), ct.span[1], len(vocab))
    gradient_bytes = scores.values.nbytes
    loss, peak = traced_peak(lambda: label_loss(scores, gold_span_labels(ct), vocab))
    assert loss.grad.nbytes == gradient_bytes
    assert peak < 1.25 * gradient_bytes


def test_label_loss_gold_spans_only_touches_gold_spans():
    rng = np.random.default_rng(9)
    ct, gold = gold_word()
    scores = random_scores(rng, 3)
    loss = label_loss(scores, gold, VOCAB, spans="gold")
    starts, ends = span_bounds(3)
    touched = {(int(starts[k]), int(ends[k])) for k in loss.rows}
    assert touched == set(gold.entries)
    assert loss.grad.shape == (len(gold.entries), len(VOCAB))


def test_label_loss_validation():
    ct, gold = gold_word()
    with pytest.raises(ValueError, match="covers"):
        label_loss(SpanScores(4, len(VOCAB)), gold, VOCAB)
    with pytest.raises(ValueError, match="span set"):
        label_loss(SpanScores(3, len(VOCAB)), gold, VOCAB, spans="pred")
    small = LabelVocab([NULL_LABEL, "@1"])
    with pytest.raises(ValueError, match="missing"):
        label_loss(SpanScores(3, len(small)), gold, small)


def test_tree_loss_zero_on_oracle_scores():
    ct, gold = gold_word()
    vocab = build_vocab([ct])
    scores = oracle_scores(gold, vocab)
    for mode in ("flat", "hamming"):
        loss = tree_loss(scores, ct, vocab, margin_mode=mode)
        assert loss.value == 0.0
        assert len(loss.rows) == 0
        assert loss.grad.shape == (0, len(vocab))


def test_tree_loss_fully_wrong_tree_flat_margin_is_one():
    # scores force a prediction sharing no (span, label) pair with gold
    ct, gold = gold_word()
    scores = SpanScores(3, len(VOCAB))
    v = scores.values
    v[span_row(3, 0, 1), VOCAB.index["VV+@1"]] = 10.0
    v[span_row(3, 1, 2), VOCAB.index["VV+@1"]] = 10.0
    v[span_row(3, 2, 3), VOCAB.index["VV+@1"]] = 10.0
    v[span_row(3, 1, 3), VOCAB.index[NULL_LABEL]] = 10.0  # forces split k=1, not gold's k=2
    v[span_row(3, 0, 3), VOCAB.index["IP"]] = 10.0

    pred, s_pred = cky_decode(scores, VOCAB)
    pred_pairs = {(n.span, n.label) for n in _nodes(pred)}
    gold_pairs = {(n.span, n.label) for n in _nodes(ct)}
    assert not pred_pairs & gold_pairs

    flat = tree_loss(scores, ct, VOCAB, margin_mode="flat")
    assert flat.value == pytest.approx(s_pred + 1.0 - 0.0)
    hamming = tree_loss(scores, ct, VOCAB, margin_mode="hamming")
    assert hamming.value == pytest.approx(s_pred + 5.0 - 0.0)
    # subgradient: +1 on predicted pairs, -1 on gold pairs
    assert sorted(flat.grad[flat.grad != 0.0].tolist()) == [-1.0] * 5 + [1.0] * 5


def _nodes(ct):
    yield ct
    if ct.char is None:
        yield from _nodes(ct.left)
        yield from _nodes(ct.right)


def test_tree_loss_margin_scales_with_overlap():
    # prediction differing in exactly one pair costs exactly one unit of
    # margin under hamming, 1/|gold| under flat
    ct, gold = gold_word()
    scores = oracle_scores(gold, VOCAB)
    # make the wrong root label irresistible
    scores.values[span_row(3, 0, 3), VOCAB.index["IP"]] = 50.0
    flat = tree_loss(scores, ct, VOCAB, margin_mode="flat")
    hamming = tree_loss(scores, ct, VOCAB, margin_mode="hamming")
    # raw decode picks the same tree shape with root IP: one wrong pair
    # loss = (s_pred + m) - s_gold = (4 + 50 + m) - 5
    assert flat.value == pytest.approx(49.0 + 1.0 / 5.0)
    assert hamming.value == pytest.approx(50.0)


def test_tree_loss_matches_finite_difference():
    rng = np.random.default_rng(21)
    ct, gold = gold_word()
    checked = 0
    for _ in range(10):
        scores = random_scores(rng, 3)
        loss = tree_loss(scores, ct, VOCAB)
        if loss.value <= 0.0:
            continue
        numeric = numeric_gradient(lambda s: tree_loss(s, ct, VOCAB), scores,
                                   eps=1e-7)
        assert np.allclose(dense(loss, scores), numeric, rtol=0.0, atol=1e-3)
        checked += 1
    assert checked >= 5


def test_tree_loss_rows_follow_first_pair_order():
    # Rows come in the order their (span, label) pairs first appear in
    # pred_pairs - gold_pairs, then gold_pairs - pred_pairs; SGD applies its
    # updates in this order, so it is part of the trained bytes.
    rng = np.random.default_rng(5)
    ct = to_char_tree(parse_bracketed("(IP (NP (NN 中国)) (VP (VV 发展) (NN 经济)))")[0])
    vocab = build_vocab([ct])
    n = ct.span[1]
    gold_pairs = {(i, j, vocab.index[lab])
                  for (i, j), lab in gold_span_labels(ct).entries.items()}
    m = 1.0 / len(gold_pairs)
    shared_rows = checked = 0
    for _ in range(30):
        scores = random_scores(rng, n, len(vocab))
        loss = tree_loss(scores, ct, vocab)
        if loss.value <= 0.0:
            continue
        aug = scores.copy()
        aug.values += m
        for (i, j, l) in gold_pairs:
            aug.values[span_row(n, i, j), l] = scores.values[span_row(n, i, j), l]
        pred, _ = cky_decode(aug, vocab)
        pred_pairs = {(i, j, vocab.index[lab])
                      for (i, j), lab in gold_span_labels(pred).entries.items()}
        expected = {}
        for pairs, sign in ((pred_pairs - gold_pairs, 1.0),
                            (gold_pairs - pred_pairs, -1.0)):
            for i, j, l in pairs:
                expected.setdefault(span_row(n, i, j), {})[l] = sign
        assert loss.rows.tolist() == list(expected)
        for k, signs in zip(loss.rows.tolist(), loss.grad):
            assert {l: float(signs[l]) for l in np.flatnonzero(signs)} == expected[k]
        assert loss.value == (tree_score(scores, vocab, pred)
                              + m * len(pred_pairs - gold_pairs)
                              - tree_score(scores, vocab, ct))
        shared_rows += sum(len(signs) > 1 for signs in expected.values())
        checked += 1
    assert checked >= 10 and shared_rows > 0


def test_tree_loss_step_decreases_loss():
    rng = np.random.default_rng(33)
    ct, gold = gold_word()
    for _ in range(20):
        scores = random_scores(rng, 3)
        loss = tree_loss(scores, ct, VOCAB)
        if loss.value <= 0.0:
            continue
        stepped = apply_gradient(scores, loss, 0.05)
        assert tree_loss(stepped, ct, VOCAB).value < loss.value


def test_label_loss_step_decreases_loss():
    rng = np.random.default_rng(34)
    ct, gold = gold_word()
    scores = random_scores(rng, 3)
    loss = label_loss(scores, gold, VOCAB)
    stepped = apply_gradient(scores, loss, 0.1)
    assert label_loss(stepped, gold, VOCAB).value < loss.value


def test_tree_loss_agrees_with_brute_force_augmented_decode():
    # the hinge must use the exact argmax of the augmented scores
    rng = np.random.default_rng(44)
    ct, gold = gold_word()
    gold_pairs = {(n.span[0], n.span[1], VOCAB.index[n.label]) for n in _nodes(ct)}
    m = 1.0 / len(gold_pairs)
    for _ in range(50):
        scores = random_scores(rng, 3)
        aug = scores.copy()
        aug.values += m
        for (i, j, l) in gold_pairs:
            aug.values[span_row(3, i, j), l] = scores.values[span_row(3, i, j), l]
        pred, _ = brute_force_decode(aug, VOCAB)
        pred_pairs = {(n.span[0], n.span[1], VOCAB.index[n.label])
                      for n in _nodes(pred)}
        expected = 0.0
        if pred_pairs != gold_pairs:
            s_pred = sum(scores.values[span_row(3, i, j), l] for (i, j, l) in pred_pairs)
            s_gold = sum(scores.values[span_row(3, i, j), l] for (i, j, l) in gold_pairs)
            expected = max(0.0, s_pred + m * len(pred_pairs - gold_pairs) - s_gold)
        loss = tree_loss(scores, ct, VOCAB)
        assert loss.value == pytest.approx(expected, abs=1e-12)


def test_tree_loss_validation():
    ct, gold = gold_word()
    with pytest.raises(ValueError, match="margin mode"):
        tree_loss(SpanScores(3, len(VOCAB)), ct, VOCAB, margin_mode="soft")
    with pytest.raises(ValueError, match="covers"):
        tree_loss(SpanScores(5, len(VOCAB)), ct, VOCAB)


def test_tree_loss_respects_decode_config():
    # with the root constraint off, a high null score at the root changes
    # the augmented argmax and therefore the loss
    ct, gold = gold_word()
    scores = oracle_scores(gold, VOCAB)
    scores.values[span_row(3, 0, 3), VOCAB.index[NULL_LABEL]] = 50.0
    default = tree_loss(scores, ct, VOCAB)
    relaxed = tree_loss(scores, ct, VOCAB,
                        config=DecodeConfig(require_nonnull_root=False))
    assert default.value == 0.0
    assert relaxed.value > 40.0
