"""Training objectives over span scores and their (sub)gradients.

``label_loss`` is a per-span cross-entropy against gold labels, where spans
not in the gold tree carry the null label "∅"; by default it sums over all
n(n+1)/2 spans so the model also learns to reject non-constituents, with a
gold-spans-only variant behind a flag.

``tree_loss`` is a structured hinge with cost-augmented decoding: every
non-gold (span, label) entry gets +m before decoding, where m spreads a
total margin of 1 over the gold spans ("flat", the default) or is 1 per
span ("hamming").  The loss clamps at zero and its subgradient is +1 on
the predicted tree's pairs and -1 on the gold tree's, shared pairs
cancelling; the gradient is empty exactly when the loss is zero.

Both return the gradient densely over the score rows it touches: packed row
indices plus one gradient row per index.  The row order is part of the
training arithmetic, since the scorers apply their updates in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartree import CharTree, gold_span_labels
from .decoder import DecodeConfig, cky_decode, tree_score
from .scoring import GoldSpanMap, LabelVocab, SpanScores, span_row

MARGIN_MODES = ("flat", "hamming")
SPAN_SETS = ("all", "gold")  # the span sets label_loss sums over


@dataclass
class LossValue:
    """A non-negative loss and its gradient w.r.t. span scores: ``grad[k]``
    is the gradient of packed score row ``rows[k]``, and rows not listed
    have none."""

    value: float
    rows: np.ndarray  # (R,) packed row indices, each at most once
    grad: np.ndarray  # (R, L)


def label_loss(scores: SpanScores, gold: GoldSpanMap, vocab: LabelVocab,
               spans: str = "all") -> LossValue:
    """Cross-entropy between softmax(scores[i, j]) and the gold label.

    ``spans="all"`` (default) covers every span, in packed row order, with
    "∅" as the implicit label of non-constituents; ``spans="gold"``
    restricts the sum to the gold tree's own spans, in sorted (i, j) order.
    The per-span losses are added left to right, starting from 0.0.
    """
    if spans not in SPAN_SETS:
        raise ValueError(f"unknown span set {spans!r}")
    if gold.n != scores.n:
        raise ValueError(f"gold map covers {gold.n} characters, scores cover {scores.n}")
    # the gold label of every packed row; "∅" (id 0) off the gold tree
    target = np.full(len(scores.values), vocab.null_id, dtype=np.int64)
    for (i, j), label in gold.entries.items():
        if label not in vocab.index:
            raise ValueError(f"gold label {label!r} missing from vocabulary")
        target[span_row(scores.n, i, j)] = vocab.index[label]
    if spans == "gold":
        starts, ends = np.array(sorted(gold.entries), dtype=np.int64).reshape(-1, 2).T
        rows = span_row(scores.n, starts, ends)
        values = scores.values[rows]
        target = target[rows]
    else:
        rows = np.arange(len(scores.values))
        values = scores.values
    picked = np.arange(len(rows)), target
    m = values.max(axis=1, keepdims=True)
    # one (S, L) buffer takes exp(values - m), then becomes the gradient
    grad = np.subtract(values, m)
    np.exp(grad, out=grad)
    lse = m + np.log(grad.sum(axis=1, keepdims=True))
    total = 0.0
    for span_loss in (lse[:, 0] - values[picked]).tolist():
        total += span_loss
    np.subtract(values, lse, out=grad)
    np.exp(grad, out=grad)
    grad[picked] -= 1.0
    return LossValue(total, rows, grad)


def _pairs_of(tree: CharTree, vocab: LabelVocab) -> set[tuple[int, int, int]]:
    gold = gold_span_labels(tree)
    pairs = set()
    for (i, j), label in gold.entries.items():
        if label not in vocab.index:
            raise ValueError(f"tree label {label!r} missing from vocabulary")
        pairs.add((i, j, vocab.index[label]))
    return pairs


def tree_loss(scores: SpanScores, gold_tree: CharTree, vocab: LabelVocab,
              config: DecodeConfig | None = None,
              margin_mode: str = "flat") -> LossValue:
    """Margin-augmented structured hinge against the gold tree."""
    if margin_mode not in MARGIN_MODES:
        raise ValueError(f"unknown margin mode {margin_mode!r}")
    if gold_tree.span != (0, scores.n):
        raise ValueError(f"gold tree covers {gold_tree.span}, scores cover (0, {scores.n})")
    if config is None:
        config = DecodeConfig()
    gold_pairs = _pairs_of(gold_tree, vocab)
    m = 1.0 if margin_mode == "hamming" else 1.0 / len(gold_pairs)

    augmented = scores.values + m
    # Reassign the originals instead of subtracting m back, so gold entries
    # are bitwise-exact.
    for (i, j, l) in gold_pairs:
        k = span_row(scores.n, i, j)
        augmented[k, l] = scores.values[k, l]
    pred_tree, _ = cky_decode(SpanScores(scores.n, scores.num_labels, augmented,
                                         validate=False), vocab, config)
    if pred_tree == gold_tree:
        return _no_gradient(scores)

    pred_pairs = _pairs_of(pred_tree, vocab)
    s_pred = tree_score(scores, vocab, pred_tree)
    s_gold = tree_score(scores, vocab, gold_tree)
    margin = m * len(pred_pairs - gold_pairs)
    loss = (s_pred + margin) - s_gold
    if loss <= 0.0:
        return _no_gradient(scores)
    # one gradient row per span, in order of its first (span, label) pair:
    # the predicted-only pairs, then the gold-only ones
    row_of: dict[int, int] = {}
    entries = []
    for pairs, sign in ((pred_pairs - gold_pairs, 1.0), (gold_pairs - pred_pairs, -1.0)):
        for i, j, l in pairs:
            k = row_of.setdefault(span_row(scores.n, i, j), len(row_of))
            entries.append((k, l, sign))
    grad = np.zeros((len(row_of), scores.num_labels))
    for k, l, sign in entries:
        grad[k, l] = sign
    return LossValue(float(loss), np.fromiter(row_of, dtype=np.int64, count=len(row_of)),
                     grad)


def _no_gradient(scores: SpanScores) -> LossValue:
    return LossValue(0.0, np.empty(0, dtype=np.int64),
                     np.empty((0, scores.num_labels)))
