"""Maximum-score binary tree over SpanScores.

Scores arrive packed, one row per span in ``iter_spans`` order (the line
order of a score file); the chart and its backtrace are indexed by (i, j).

``cky_decode`` fills a chart bottom-up and backtraces top-down.  Because no
grammar couples a span's label to its children's labels, the recursion
splits into an independent per-span best label plus a best split point,
O(n^3 + n^2 L) total.  Tie rule everywhere: smallest label id, then
smallest split k (first maximum wins).

The chart fill takes one label argmax over all spans, then runs the
split DP vectorized over all spans of a width.  Every combined score
associates as ``label_score + (left + right)``, which ``tree_score``
reproduces bitwise.
``brute_force_decode`` enumerates every bracketing as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chartree import CharTree
from .labels import is_char_label
from .scoring import LabelVocab, SpanScores, iter_spans, span_bounds, span_row

PLACEHOLDER_CHAR = "□"

_BRUTE_FORCE_MAX = 12


@dataclass
class DecodeConfig:
    """Well-formedness masks applied before decoding.

    ``constrain_char_labels`` keeps "@1"-final labels on exactly the
    length-1 spans; ``require_nonnull_root`` forbids "∅" on (0, n).
    """

    constrain_char_labels: bool = True
    require_nonnull_root: bool = True


def available_backends() -> list[str]:
    # a single chart fill; kept because perfbench/run.py records this list
    # in the context of every benchmark run
    return ["python"]


def apply_masks(scores: SpanScores, vocab: LabelVocab,
                config: DecodeConfig) -> SpanScores:
    """Copy of ``scores`` with configured entries set to -inf.

    "∅" is never masked on non-root spans: it is how the decoder marks
    spans that are not constituents.  Raises when a span is left with no
    finite label at all.
    """
    if len(vocab) != scores.num_labels:
        raise ValueError("vocabulary size does not match score array")
    out = scores.copy()
    v = out.values
    n = scores.n
    if config.constrain_char_labels:
        char_final = np.array([is_char_label(lab) for lab in vocab.labels])
        width1 = np.zeros(len(v), dtype=bool)
        width1[span_row(n, np.arange(n), np.arange(1, n + 1))] = True
        v[np.ix_(width1, ~char_final)] = -np.inf
        v[np.ix_(~width1, char_final)] = -np.inf
    if config.require_nonnull_root:
        v[span_row(n, 0, n), vocab.null_id] = -np.inf
    bad = ~np.isfinite(v).any(axis=1)
    if bad.any():
        si, sj = span_bounds(n)
        k = int(np.argmax(bad))
        raise ValueError(f"masking left span ({si[k]}, {sj[k]}) with no usable label")
    return out


def fill_chart(values: np.ndarray, n: int):
    """Chart arrays (best_combined, best_label, best_split) for the packed
    (n(n+1)/2, L) score rows ``values``, each an (n+1, n+1) array indexed
    by span (i, j).

    Entries off the upper triangle, and splits of length-1 spans, are 0.
    The split DP runs one width at a time over two copies of the chart,
    ``by_start[i, l] = bc[i, i + l]`` and ``by_end[j, n - l] = bc[j - l, j]``,
    so the left and the right parts of all splits of a width are two
    forward slices that line up split by split.
    """
    labels = values.argmax(axis=1)
    si, sj = span_bounds(n)
    bestlab = np.zeros((n + 1, n + 1), dtype=labels.dtype)
    bestlab[si, sj] = labels
    by_start = np.zeros((n + 1, n + 1))
    by_start[si, sj - si] = values[np.arange(len(values)), labels]
    by_end = np.zeros((n + 1, n + 1))
    by_end[1:, n - 1] = by_start[:n, 1]
    split = np.zeros((n + 1, n + 1), dtype=np.int64)
    pos = np.arange(n + 1)
    for length in range(2, n + 1):
        count = n - length + 1
        cands = by_start[:count, 1:length] + by_end[length:, count:n]
        bk = cands.argmax(axis=1)
        by_start[:count, length] = by_end[length:, n - length] = (
            by_start[:count, length] + cands[pos[:count], bk])
        split[pos[:count], pos[length:]] = pos[1:count + 1] + bk
    bc = np.zeros((n + 1, n + 1))
    bc[si, sj] = by_start[si, sj - si]
    return bc, bestlab, split


def cky_decode(scores: SpanScores, vocab: LabelVocab,
               config: DecodeConfig | None = None,
               chars: Sequence[str] | None = None) -> tuple[CharTree, float]:
    """Highest-scoring binary tree and its total span-score sum.

    ``chars`` supplies leaf characters; a placeholder is used when absent
    (scores alone do not carry the text).
    """
    if config is None:
        config = DecodeConfig()
    n = scores.n
    if chars is not None and len(chars) != n:
        raise ValueError(f"got {len(chars)} characters for {n} score positions")
    masked = apply_masks(scores, vocab, config)
    bc, bestlab, split = fill_chart(masked.values, n)

    def build(i: int, j: int) -> CharTree:
        label = vocab[int(bestlab[i, j])]
        if j - i == 1:
            ch = chars[i] if chars is not None else PLACEHOLDER_CHAR
            return CharTree(label, char=ch, start=i)
        k = int(split[i, j])
        return CharTree(label, left=build(i, k), right=build(k, j))

    return build(0, n), float(bc[0, n])


def tree_score(scores: SpanScores, vocab: LabelVocab, tree: CharTree) -> float:
    """Sum of the tree's chosen span scores, associated exactly as the
    chart fill associates them, so it reproduces cky_decode's total."""
    i, j = tree.span
    v = float(scores.values[span_row(scores.n, i, j), vocab.index[tree.label]])
    if tree.char is not None:
        return v
    return v + (tree_score(scores, vocab, tree.left)
                + tree_score(scores, vocab, tree.right))


def _span_argmax(values: np.ndarray, n: int, num_labels: int):
    # Deliberately a plain scan, sharing no code with the chart fills.
    bestlab = {}
    labscore = {}
    for (i, j), row in zip(iter_spans(n), values):
        arg = 0
        best = row[0]
        for l in range(1, num_labels):
            v = row[l]
            if v > best:
                # strict >: the first maximum, i.e. smallest label id, wins
                best = v
                arg = l
        bestlab[i, j] = arg
        labscore[i, j] = float(best)
    return bestlab, labscore


def _enumerate_trees(labscore: dict, i: int, j: int, memo: dict) -> list:
    """Every bracketing of (i, j) as (score, shape), in split-major order so
    a first-strict-max scan lands on the same tree as the chart tie rule."""
    key = (i, j)
    if key in memo:
        return memo[key]
    if j == i + 1:
        out = [(labscore[i, j], None)]
    else:
        out = []
        for k in range(i + 1, j):
            for ls, lshape in _enumerate_trees(labscore, i, k, memo):
                for rs, rshape in _enumerate_trees(labscore, k, j, memo):
                    out.append((labscore[i, j] + (ls + rs), (k, lshape, rshape)))
    memo[key] = out
    return out


def brute_force_decode(scores: SpanScores, vocab: LabelVocab,
                       config: DecodeConfig | None = None,
                       chars: Sequence[str] | None = None) -> tuple[CharTree, float]:
    """Exhaustive maximum over all bracketings; oracle for cky_decode."""
    n = scores.n
    if n > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute force decoding is limited to n <= {_BRUTE_FORCE_MAX}")
    if config is None:
        config = DecodeConfig()
    if chars is not None and len(chars) != n:
        raise ValueError(f"got {len(chars)} characters for {n} score positions")
    masked = apply_masks(scores, vocab, config)
    bestlab, labscore = _span_argmax(masked.values, n, scores.num_labels)
    best = None
    best_shape = None
    for s, shape in _enumerate_trees(labscore, 0, n, {}):
        if best is None or s > best:
            best = s
            best_shape = shape

    def build(i: int, j: int, shape) -> CharTree:
        label = vocab[bestlab[i, j]]
        if shape is None:
            ch = chars[i] if chars is not None else PLACEHOLDER_CHAR
            return CharTree(label, char=ch, start=i)
        k, lshape, rshape = shape
        return CharTree(label, left=build(i, k, lshape), right=build(k, j, rshape))

    return build(0, n, best_shape), float(best)
