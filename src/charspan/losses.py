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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chartree import CharTree, gold_span_labels
from .decoder import DecodeConfig, cky_decode, tree_score
from .scoring import GoldSpanMap, LabelVocab, SpanScores, iter_spans, span_row

MARGIN_MODES = ("flat", "hamming")
SPAN_SETS = ("all", "gold")  # the span sets label_loss sums over


@dataclass
class LossValue:
    """A non-negative loss and its gradient w.r.t. span scores, as a sparse
    (i, j, label_id) -> value map."""

    value: float
    score_gradient: dict[tuple[int, int, int], float]


def label_loss(scores: SpanScores, gold: GoldSpanMap, vocab: LabelVocab,
               spans: str = "all") -> LossValue:
    """Cross-entropy between softmax(scores[i, j]) and the gold label.

    ``spans="all"`` (default) covers every span with "∅" as the implicit
    label of non-constituents; ``spans="gold"`` restricts the sum to the
    gold tree's own spans.
    """
    if spans not in SPAN_SETS:
        raise ValueError(f"unknown span set {spans!r}")
    if gold.n != scores.n:
        raise ValueError(f"gold map covers {gold.n} characters, scores cover {scores.n}")
    span_list = sorted(gold.entries) if spans == "gold" else iter_spans(scores.n)
    total = 0.0
    grad: dict[tuple[int, int, int], float] = {}
    for i, j in span_list:
        label = gold.label_of(i, j)
        if label not in vocab.index:
            raise ValueError(f"gold label {label!r} missing from vocabulary")
        target = vocab.index[label]
        row = scores.values[span_row(scores.n, i, j)]
        m = row.max()
        lse = m + np.log(np.exp(row - m).sum())
        total += float(lse - row[target])
        p = np.exp(row - lse)
        p[target] -= 1.0
        for l in range(scores.num_labels):
            grad[(i, j, l)] = float(p[l])
    return LossValue(total, grad)


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
        return LossValue(0.0, {})

    pred_pairs = _pairs_of(pred_tree, vocab)
    s_pred = tree_score(scores, vocab, pred_tree)
    s_gold = tree_score(scores, vocab, gold_tree)
    margin = m * len(pred_pairs - gold_pairs)
    loss = (s_pred + margin) - s_gold
    if loss <= 0.0:
        return LossValue(0.0, {})
    grad: dict[tuple[int, int, int], float] = {}
    for p in pred_pairs - gold_pairs:
        grad[p] = 1.0
    for g in gold_pairs - pred_pairs:
        grad[g] = -1.0
    return LossValue(float(loss), grad)
