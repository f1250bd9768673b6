"""Maximum-score binary tree over SpanScores.

Scores arrive packed, one row per span in ``iter_spans`` order (the line
order of a score file); the split chart is indexed by span start and width.

No grammar couples a span's label to its children's labels, so
``cky_decode`` runs in two steps, O(n^2 L + n^3) in total:

1. ``apply_masks``, the masked label argmax: each span's best label among
   those the ``DecodeConfig`` allows, and that label's score.  It reads
   the scores in place; only rows whose unmasked winner is masked off are
   copied, to be scanned again.
2. ``fill_chart``, the split DP: a CKY over those per-span scores that only
   chooses split points, vectorized over all spans of a width.  It returns
   the best total and the chart of best split points, indexed by span
   start and width.

``cky_decode`` then backtraces the split chart top-down, reading each
span's label from the packed argmax by its row.

``decode_sentence`` decodes a sentence straight from a scorer, with the
same three steps: the masked argmax runs on each chunk of scores as the
scorer makes it, so the sentence's (n(n+1)/2, L) array is never held.

Tie rule everywhere: smallest label id, then smallest split k (first
maximum wins).  Every combined score associates as
``label_score + (left + right)``, which ``tree_score`` reproduces bitwise.
``brute_force_decode`` enumerates every bracketing as an oracle; it masks
a copy of the scores with code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chartree import CharTree
from .labels import is_char_label
from . import scoring
from .scoring import (LabelVocab, SpanScores, check_scored, iter_spans, score_spans,
                      span_bounds, span_representation, span_row)

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
                config: DecodeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Masked label argmax: ``(labels, best)``, one entry per packed row.

    ``labels[k]`` is the first maximum of row k among the labels
    ``config`` allows on its span, and ``best[k]`` is its score.  With
    ``constrain_char_labels`` the "@1"-final labels are allowed on exactly
    the length-1 spans, so "∅" is masked on those spans too; with
    ``require_nonnull_root`` "∅" is not allowed on (0, n).  Elsewhere "∅"
    is allowed: it is how the decoder marks spans that are not
    constituents.

    The scores are read in place: one argmax runs over all labels, and
    only the rows whose winner is masked off are copied and scanned again.
    Raises when a span is left with no finite usable score.
    """
    if len(vocab) != scores.num_labels:
        raise ValueError("vocabulary size does not match score array")
    n = scores.n
    labels, best, bad = _masked_argmax(scores.values, _row_kinds(n, 0, n),
                                       _usable(vocab, config))
    if bad >= 0:
        raise _no_usable_label(n, bad)
    return labels, best


def _usable(vocab: LabelVocab, config: DecodeConfig) -> np.ndarray:
    """``usable[kind]``, the labels ``config`` allows on a row of that kind,
    where the kind is 1 for a length-1 span plus 2 for the root span."""
    usable = np.ones((4, len(vocab)), dtype=bool)
    if config.constrain_char_labels:
        usable[[0, 2]] = ~vocab.char_final
        usable[[1, 3]] = vocab.char_final
    if config.require_nonnull_root:
        usable[2:, vocab.null_id] = False
    return usable


def _row_kinds(n: int, p0: int, p1: int) -> np.ndarray:
    """The kind of each packed row of the spans that start at p0, ...,
    p1 - 1 of an n-character sentence, as ``_usable`` numbers them."""
    starts = np.arange(p0, p1 + 1)
    first = span_row(n, starts, starts + 1)  # (p, p + 1) starts the block of p
    kind = np.zeros(first[-1] - first[0], dtype=np.intp)
    kind[first[:-1] - first[0]] = 1
    if p0 == 0:
        kind[n - 1] += 2  # (0, n) ends the block of 0
    return kind


def _masked_argmax(values: np.ndarray, kind: np.ndarray,
                   usable: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(labels, best, bad)`` of the score rows ``values`` of kinds
    ``kind``: the first maximum of each row among its usable labels, its
    score, and the first row left with no finite usable score (-1 for
    none).  A usable winner of the unmasked argmax is already the first
    maximum among the usable labels, so only the other rows are copied
    and scanned again."""
    labels = values.argmax(axis=1)
    best = values[np.arange(len(values)), labels]
    redo = np.flatnonzero(~usable[kind, labels])
    if len(redo):
        masked = values.take(redo, axis=0)
        np.putmask(masked, ~usable[kind[redo]], -np.inf)
        labels[redo] = masked.argmax(axis=1)
        best[redo] = masked[np.arange(len(redo)), labels[redo]]
    odd = np.flatnonzero(~np.isfinite(best))
    if len(odd):
        unusable = ~(np.isfinite(values[odd]) & usable[kind[odd]]).any(axis=1)
        if unusable.any():
            return labels, best, int(odd[np.argmax(unusable)])
    return labels, best, -1


def _no_usable_label(n: int, row: int) -> ValueError:
    si, sj = span_bounds(n)
    return ValueError(f"masking left span ({si[row]}, {sj[row]}) with no usable label")


def fill_chart(best: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Split DP over the best masked label scores ``apply_masks`` returns,
    one per packed row: ``(total, split)``.

    ``total`` is the best tree's score.  ``split`` is in by-start layout:
    ``split[i, l]`` is the best split point k (i < k < i + l) of span
    (i, i + l); entries of length-1 spans, and past the sentence's end,
    are 0.  The DP runs one width at a time over two copies of the chart
    of subtree totals, ``by_start[i, l]`` and ``by_end[j, n - l]`` for span
    (i, j) of width l, so the left and the right parts of all splits of a
    width are two forward slices that line up split by split, and a
    width's totals and splits are written as slices too.
    """
    si, sj = span_bounds(n)
    by_start = np.zeros((n + 1, n + 1))
    by_start[si, sj - si] = best
    by_end = np.zeros((n + 1, n + 1))
    by_end[1:, n - 1] = by_start[:n, 1]
    split = np.zeros((n, n + 1), dtype=np.intp)
    pos = np.arange(n + 1)
    for length in range(2, n + 1):
        count = n - length + 1
        cands = by_start[:count, 1:length] + by_end[length:, count:n]
        bk = cands.argmax(axis=1)
        by_start[:count, length] = by_end[length:, n - length] = (
            by_start[:count, length] + cands[pos[:count], bk])
        split[:count, length] = pos[1:count + 1] + bk
    return float(by_start[0, n]), split


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
    labels, best = apply_masks(scores, vocab, config)
    total, split = fill_chart(best, n)
    if chars is None:
        chars = PLACEHOLDER_CHAR * n
    return _backtrace(vocab, labels, split, chars), total


def decode_sentence(scorer, chars: Sequence[str], vocab: LabelVocab,
                    config: DecodeConfig | None = None) -> tuple[CharTree, float]:
    """``cky_decode(score_spans(scorer, chars, vocab), vocab, config,
    chars=chars)``, bit for bit and with the same errors, without the
    sentence's (n(n+1)/2, L) score array.

    The sentence's features are hashed once, into its position id tables
    (``span_representation``), and the scorer gathers the weight rows of
    those positions once (``start_blocks``).  Then whole blocks of spans
    with one start are scored, a few blocks at a time, into one buffer of
    at most ``scoring._CHUNK_VALUES`` values (or of the first block, if
    that is bigger); each chunk is checked to be finite and reduced by the
    masked label argmax into the sentence's per-span ``labels`` and
    ``best``.
    A span's label does not depend on its split, so the split DP and the
    backtrace then run on those alone.  Beside the model, memory is the
    O(n^2) per-span arrays and chart, the scorer's O(n) per-position rows
    and one chunk.

    A sentence whose whole array is no bigger than one chunk is scored and
    decoded as that array, by ``score_spans`` and ``cky_decode``: the same
    steps in one chunk, under the names a caller tracing the layers knows.
    """
    if scorer.num_labels != len(vocab):
        raise ValueError(f"scorer produces {scorer.num_labels} labels, "
                         f"vocabulary has {len(vocab)}")
    if config is None:
        config = DecodeConfig()
    n = len(chars)
    num_spans = n * (n + 1) // 2
    if num_spans * len(vocab) <= scoring._CHUNK_VALUES:
        return cky_decode(score_spans(scorer, chars, vocab), vocab, config, chars=chars)
    rep = span_representation(chars, scorer.dim)
    usable = _usable(vocab, config)
    cap = max(1, scoring._CHUNK_VALUES // len(vocab))  # rows per chunk
    buffer = np.empty((min(max(cap, n), num_spans), len(vocab)))
    labels = np.empty(num_spans, dtype=np.intp)
    best = np.empty(num_spans)
    blocks = scorer.start_blocks(rep)
    bad = -1
    p0 = r0 = 0
    while p0 < n:
        # the block of start p has n - p rows: one block at least (the
        # first is the biggest), then as many more as fit
        p1, r1 = p0 + 1, r0 + n - p0
        while p1 < n and r1 + n - p1 - r0 <= cap:
            p1, r1 = p1 + 1, r1 + n - p1
        rows = blocks(p0, p1, buffer)
        check_scored(rows, n, r0)
        labels[r0:r1], best[r0:r1], chunk_bad = _masked_argmax(
            rows, _row_kinds(n, p0, p1), usable)
        if bad < 0 <= chunk_bad:
            bad = r0 + chunk_bad
        p0, r0 = p1, r1
    del blocks, buffer, rows
    if bad >= 0:  # after every chunk, so a non-finite score is reported first
        raise _no_usable_label(n, bad)
    total, split = fill_chart(best, n)
    return _backtrace(vocab, labels, split, chars), total


def _backtrace(vocab: LabelVocab, labels: np.ndarray, split: np.ndarray,
               chars: Sequence[str]) -> CharTree:
    """The tree ``fill_chart``'s ``split`` chart picks, labelled from the
    packed ``labels``.

    One walk lists the spans in pre-order; building them in reverse order
    makes every node after its two subtrees.  Neither walk recurses, so
    tree depth is not bounded by the recursion limit.
    """
    n = len(chars)
    names = vocab.labels
    order = []
    stack = [(0, n)]
    while stack:
        i, j = stack.pop()
        order.append((i, j))
        if j - i > 1:
            k = int(split[i, j - i])
            stack += ((k, j), (i, k))
    built: list[CharTree] = []  # finished subtrees, the last one leftmost
    for i, j in reversed(order):
        label = names[labels[span_row(n, i, j)]]
        if j - i == 1:
            built.append(CharTree(label, char=chars[i], start=i))
        else:
            left = built.pop()
            built.append(CharTree(label, left=left, right=built.pop()))
    return built[0]


def tree_score(scores: SpanScores, vocab: LabelVocab, tree: CharTree) -> float:
    """Sum of the tree's chosen span scores, associated exactly as the
    chart fill associates them, so it reproduces cky_decode's total: a
    node adds its own score to the sum of its two subtrees' totals.

    The walk keeps an explicit stack, so tree depth is not bounded by the
    recursion limit.
    """
    totals: list[float] = []  # finished subtrees, left before right
    stack = [(tree, False)]
    while stack:
        node, children_done = stack.pop()
        if node.char is None and not children_done:
            stack += ((node, True), (node.right, False), (node.left, False))
            continue
        i, j = node.span
        v = float(scores.values[span_row(scores.n, i, j), vocab.index[node.label]])
        if node.char is None:
            right = totals.pop()
            v = v + (totals.pop() + right)
        totals.append(v)
    return totals[0]


def _masked_copy(scores: SpanScores, vocab: LabelVocab,
                 config: DecodeConfig) -> SpanScores:
    """Copy of ``scores`` with the entries ``config`` masks set to -inf;
    the oracle's masking, independent of ``apply_masks``.  Raises when a
    span is left with no finite label at all."""
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
    masked = _masked_copy(scores, vocab, config)
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
