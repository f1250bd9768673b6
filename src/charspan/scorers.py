"""Trainable span scorers over hashed span features.

Both scorers map a SpanRepresentation (a bag of feature ids) to one score
per label, or an (S, 8) id matrix to an (S, L) score array in one batch.
``LinearScorer`` is a hashed linear model whose weights live in a compact
table keyed by hashed id; ``MLPHead`` is a two-layer perceptron with a
rectifier and inverted dropout, so the inference path needs no rescaling.

A representation of all spans of a sentence carries per-position id
tables (``PositionIds``), and a batch forward reads its rows from those:
one table row per position and feature, about 12n rows for n characters,
where the id matrix would take 8 per span.  Either way every span's rows
are added in one order, ``_gather_sum``'s: from +0.0, then L, B, E, R,
LB, ER, then S only where the span has one (skipped, never added as a
zero), then W.  So a sentence's batch scores every span bit for bit like
the span alone, sign of zero included.  ``start_blocks(rep)`` gathers
the rows of a sentence's positions once and returns a function that
scores the spans starting at p0, ..., p1 - 1 into a caller's buffer, so a
decoder can score a sentence a few start blocks at a time; ``score`` is
that over all starts, into an (n(n+1)/2, L) array.

Training goes one sentence at a time.  ``backward(rep, rows, grad, cache)``
takes a loss's gradient for the packed score ``rows`` of one sentence and
returns a ``SentenceGradient``, with the ids of those rows' spans built from
the position tables: nothing keeps a sentence's id matrix.  ``sgd_step``
applies a batch of them, one sentence after another in batch order, and
within a sentence span by span and feature by feature, the order every
weight's updates round in.  A sentence's updates land in pieces of at most
``_UPDATE_ROWS`` rows, one ``np.subtract.at`` each, so a step holds no
more than one piece beside the sentence's gradient, however long the
sentence and however many the labels.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .scoring import PositionIds, SpanRepresentation, span_row

_UPDATE_ROWS = 1024  # most update rows in one np.subtract.at, 8 per span


def _gather_sum(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per span, the ``table`` rows at its ids added one by one in feature
    order, starting from +0.0; ids of -1 are skipped.

    This is the order ``table[ids].sum(axis=0)`` adds a span's rows in when
    the rows are at least 8 wide.  It is the per-span reference: single
    spans and id matrices without position tables are summed here, and
    ``_sentence_sum`` adds in the same order.
    """
    spans = np.atleast_2d(ids)
    out = np.zeros((spans.shape[0], table.shape[1]))
    for column in spans.T:
        present = column >= 0
        if present.all():
            out += table[column]
        else:
            out[present] += table[column[present]]
    return out if ids.ndim == 2 else out[0]


def _rows_at(table: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``table[pos]`` with a +0.0 row wherever ``pos`` is -1; all +0.0
    rows when ``table`` is empty."""
    if not len(table):
        return np.zeros(pos.shape + table.shape[1:])
    out = table[pos]
    out[pos < 0] = 0.0
    return out


class PositionRows(NamedTuple):
    """The ``table`` rows of a sentence's position features, gathered once
    (``PositionIds`` layout, a +0.0 row for id -1), which every span's
    sum reads from: ``first`` is L + B of each start, added from +0.0."""

    first: np.ndarray       # (n, W)
    left_begin: np.ndarray  # (n, W)
    end: np.ndarray         # (n, W)
    right: np.ndarray       # (n, W)
    end_right: np.ndarray   # (n, W)
    short: np.ndarray       # (4, n, W); rows past the sentence's end are never read
    width: np.ndarray       # (n, W), width w at w - 1

    @classmethod
    def gather(cls, table: np.ndarray, at: PositionIds) -> "PositionRows":
        left, begin, left_begin = _rows_at(table, at.by_start)
        end, right, end_right = _rows_at(table, at.by_end)
        first = left + 0.0  # the sum starts from +0.0, which makes -0.0 +0.0
        first += begin
        return cls(first, left_begin, end, right, end_right,
                   _rows_at(table, at.by_short), _rows_at(table, at.by_width[1:]))


def _sentence_sum(rows: PositionRows, p0: int, p1: int, out: np.ndarray) -> np.ndarray:
    """The spans that start at p0, ..., p1 - 1, in packed row order: their
    features' rows added as ``_gather_sum`` adds them, written to the first
    rows of ``out`` and returned as that view.

    The spans that start at p take consecutive packed rows and end at
    p + 1, ..., n, so each start-indexed feature adds one row to the block
    and each end-indexed one the slice [p, n - 1] of its per-position
    rows: no per-span gather.
    """
    n = len(rows.first)
    row = 0
    for p in range(p0, p1):
        block = out[row:row + n - p]
        np.add(rows.first[p], rows.end[p:], out=block)
        block += rows.right[p:]
        block += rows.left_begin[p]
        block += rows.end_right[p:]
        block[:4] += rows.short[:n - p, p]  # S of widths 1-4 that fit
        block += rows.width[:n - p]
        row += n - p
    return out[:row]


class SentenceGradient(NamedTuple):
    """One sentence's gradient, span by span, before the SGD scale.

    Span k's feature ids ``ids[k]`` (-1 for none) each take ``feature[k]``,
    the gradient at the sum of their first-layer rows.  An MLP also keeps
    each span's hidden activations ``hidden[k]`` and score gradient
    ``grad[k]``, whose outer product is span k's ``W2`` gradient.
    """

    ids: np.ndarray                   # (R, 8)
    feature: np.ndarray               # (R, L) linear, (R, H) MLP
    hidden: np.ndarray | None = None  # (R, H), MLP only
    grad: np.ndarray | None = None    # (R, L), MLP only

    def feature_updates(self, scale: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every (feature id, ``scale`` times its gradient row) of the
        sentence, span by span and in feature order within a span, in
        pieces of at most ``_UPDATE_ROWS // 8`` spans."""
        spans = _UPDATE_ROWS // 8
        for start in range(0, len(self.ids), spans):
            ids = self.ids[start:start + spans]
            present = ids >= 0
            updates = self.feature[start:start + spans][np.nonzero(present)[0]]
            updates *= scale
            yield ids[present], updates


def _subtract_rows(table: np.ndarray, pos: np.ndarray, updates: np.ndarray) -> None:
    """``np.subtract.at(table, pos, updates)`` for a C-contiguous 2-D
    ``table``: row ``pos[t]`` takes ``updates[t]`` for t in order, so each
    weight takes its updates in the same order and with the same rounding.

    numpy's ``ufunc.at`` is several times faster on single elements than on
    whole rows, so this addresses the flattened table.  Its index array is
    as big as ``updates``, which ``feature_updates`` keeps to one piece.
    """
    width = table.shape[1]
    np.subtract.at(table.reshape(-1, copy=False),
                   (pos[:, None] * width + np.arange(width)).ravel(), updates.ravel())


def _check_upstream(grad: np.ndarray) -> None:
    if not np.isfinite(grad).all():
        raise ValueError("non-finite upstream gradient")


def check_keys(keys: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``keys`` are strictly increasing ids in [0, dim)."""
    if len(keys) and (keys[0] < 0 or keys[-1] >= dim or (np.diff(keys) <= 0).any()):
        raise ValueError(f"keys must be strictly increasing ids below {dim}")


class LinearScorer:
    """score(rep) = sum of weight rows at the span's feature ids.

    The weights of the (dim, L) matrix are held as sorted hashed ``keys``
    and their (K, L) ``rows``; an id that is not a key has an all-zero row.
    Collisions are those of the dense matrix, so scores are too.  Given
    ``rows`` of float64 in C order are adopted, not copied: the scorer and
    the caller share them, and ``sgd_step`` writes to them in place.
    """

    def __init__(self, dim: int, num_labels: int, keys=None, rows=None):
        if dim <= 0:
            raise ValueError("feature dimension must be positive")
        keys = np.asarray([] if keys is None else keys, dtype=np.int64)
        rows = (np.zeros((len(keys), num_labels)) if rows is None
                else np.ascontiguousarray(rows, dtype=np.float64))
        if keys.ndim != 1 or rows.shape != (len(keys), num_labels):
            raise ValueError(f"expected {num_labels}-wide rows for {len(keys)} keys, "
                             f"got shape {rows.shape}")
        check_keys(keys, dim)
        self.dim = dim
        self.keys = keys
        self.rows = rows

    @property
    def num_labels(self) -> int:
        return self.rows.shape[1]

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Row of each id; -1 for an id that is not a key, and for -1."""
        pos = np.searchsorted(self.keys, ids)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == ids[hit]
        return np.where(hit, pos, -1)

    def register(self, ids) -> None:
        """Give every id in ``ids`` (-1 aside) a row, all zero if it is new."""
        ids = np.sort(np.asarray(ids, dtype=np.int64).ravel())
        ids = ids[ids >= 0]
        # the first of each run of equal ids that is not a key yet
        new = ids[(np.diff(ids, prepend=-1) > 0) & (self._positions(ids) < 0)]
        if not new.size:
            return
        if new[-1] >= self.dim:
            raise ValueError(f"feature id {new[-1]} is not below {self.dim}")
        at = np.searchsorted(self.keys, new)
        # the new rows, with their zero rows in place, in one allocation
        self.keys = np.insert(self.keys, at, new)
        self.rows = np.insert(self.rows, at, 0.0, axis=0)

    def score(self, rep: SpanRepresentation) -> np.ndarray:
        if rep.positions is None:
            return _gather_sum(self.rows, self._positions(rep.ids))
        n = rep.positions.by_start.shape[1]
        return self.start_blocks(rep)(0, n, np.empty((n * (n + 1) // 2, self.num_labels)))

    def start_blocks(self, rep: SpanRepresentation):
        """A function ``(p0, p1, out)`` that writes the scores of the spans
        that start at p0, ..., p1 - 1 of the sentence ``rep`` holds with
        its position tables, in packed row order, to the first rows of
        ``out`` and returns that view.  The rows it reads are gathered
        once, here."""
        at = PositionIds(*map(self._positions, rep.positions))
        return partial(_sentence_sum, PositionRows.gather(self.rows, at))

    def score_train(self, rep: SpanRepresentation, rng) -> tuple[np.ndarray, None]:
        # No dropout in the linear model; train scoring equals inference.
        return self.score(rep), None

    def backward(self, rep: SpanRepresentation, rows: np.ndarray, grad: np.ndarray,
                 cache=None) -> SentenceGradient:
        """The weight gradient of score rows ``rows`` of the sentence whose
        spans ``rep`` holds, given their gradient ``grad``."""
        _check_upstream(grad)
        return SentenceGradient(rep.ids_of(rows), grad)

    def params(self) -> dict[str, np.ndarray]:
        return {"keys": self.keys, "rows": self.rows}

    def sgd_step(self, grads: list[SentenceGradient], lr: float,
                 count: int | None = None) -> None:
        """Plain SGD on the batch mean; an id without a row gets one.

        One ``np.subtract.at`` per piece of a sentence lands its updates one
        by one, so every weight takes them in the order, and with the
        rounding, of ``np.subtract.at`` on the dense matrix.
        """
        scale = lr / (count if count is not None else len(grads))
        for g in grads:
            for ids, updates in g.feature_updates(scale):
                self._subtract(ids, updates)

    def _subtract(self, ids: np.ndarray, updates: np.ndarray) -> None:
        pos = self._positions(ids)
        new = pos < 0
        if new.any():
            self.register(ids[new])
            pos = np.searchsorted(self.keys, ids)
        _subtract_rows(self.rows, pos, updates)


class MLPHead:
    """Two-layer perceptron head: relu(x W1 + b1) W2 + b2.

    ``dropout`` is applied to the hidden layer only in ``score_train``,
    with inverted scaling.  The weights are drawn from ``rng``, or taken
    from ``params`` (W1, b1, W2, b2 of the ``param_shapes`` shapes): arrays
    of float64 in C order are adopted, not copied, so the head and the
    caller share them and ``sgd_step`` writes to them in place.
    """

    def __init__(self, dim: int, num_labels: int, hidden: int = 250,
                 dropout: float = 0.2, rng: np.random.Generator | None = None,
                 params: dict[str, np.ndarray] | None = None):
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        shapes = self.param_shapes(dim, num_labels, hidden)
        if params is None:
            if rng is None:
                rng = np.random.default_rng(0)
            params = {"W1": rng.normal(0.0, 0.01, size=shapes["W1"]),
                      "b1": np.zeros(hidden),
                      "W2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=shapes["W2"]),
                      "b2": np.zeros(num_labels)}
        else:
            params = {name: np.ascontiguousarray(params[name], dtype=np.float64)
                      for name in shapes}
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ValueError(f"expected {name} of shape {shape}, "
                                 f"got {params[name].shape}")
            setattr(self, name, params[name])
        self.dropout = dropout

    @staticmethod
    def param_shapes(dim: int, num_labels: int, hidden: int) -> dict[str, tuple]:
        """Shape of each parameter array of a head of these sizes."""
        return {"W1": (dim, hidden), "b1": (hidden,), "W2": (hidden, num_labels),
                "b2": (num_labels,)}

    @property
    def dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden(self) -> int:
        return self.W1.shape[1]

    @property
    def num_labels(self) -> int:
        return self.W2.shape[1]

    def _pre_hidden(self, rep: SpanRepresentation) -> np.ndarray:
        if rep.positions is None:
            return _gather_sum(self.W1, rep.ids) + self.b1
        n = rep.positions.by_start.shape[1]
        rows = PositionRows.gather(self.W1, rep.positions)
        pre = _sentence_sum(rows, 0, n, np.empty((n * (n + 1) // 2, self.hidden)))
        pre += self.b1
        return pre

    def _output(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h W2 + b2; a batch is written to the first rows of ``out`` (by
        default a new array), which are returned."""
        if h.ndim == 1:
            return h @ self.W2 + self.b2
        out = np.empty((len(h), self.num_labels)) if out is None else out[:len(h)]
        # one product per span: a batched H @ W2 need not round like h @ W2
        for row, hidden in zip(out, h):
            row[:] = hidden @ self.W2
        out += self.b2
        return out

    def score(self, rep: SpanRepresentation) -> np.ndarray:
        if rep.positions is None:
            return self._output(np.maximum(self._pre_hidden(rep), 0.0))
        n = rep.positions.by_start.shape[1]
        return self.start_blocks(rep)(0, n, np.empty((n * (n + 1) // 2, self.num_labels)))

    def start_blocks(self, rep: SpanRepresentation):
        """A function ``(p0, p1, out)`` that writes the scores of the spans
        that start at p0, ..., p1 - 1 of the sentence ``rep`` holds with
        its position tables, in packed row order, to the first rows of
        ``out`` and returns that view.  The ``W1`` rows it reads are
        gathered once, here."""
        rows = PositionRows.gather(self.W1, rep.positions)
        n = len(rows.first)

        def scores(p0: int, p1: int, out: np.ndarray) -> np.ndarray:
            # the spans (p, p + 1) start the blocks of p0 and p1 (row S for p1 = n)
            size = span_row(n, p1, p1 + 1) - span_row(n, p0, p0 + 1)
            h = _sentence_sum(rows, p0, p1, np.empty((size, self.hidden)))
            h += self.b1
            np.maximum(h, 0.0, out=h)
            return self._output(h, out)

        return scores

    def score_train(self, rep: SpanRepresentation,
                    rng: np.random.Generator) -> tuple[np.ndarray, dict]:
        pre = self._pre_hidden(rep)
        h = np.maximum(pre, 0.0)
        if self.dropout > 0.0:
            # a batch draws the same stream as its spans one by one
            keep = (rng.random(pre.shape) >= self.dropout) / (1.0 - self.dropout)
            h = h * keep
        else:
            keep = None
        cache = {"pre": pre, "keep": keep}
        return self._output(h), cache

    def backward(self, rep: SpanRepresentation, rows: np.ndarray, grad: np.ndarray,
                 cache: dict | None = None) -> SentenceGradient:
        """Gradients of score rows ``rows`` of the sentence whose spans
        ``rep`` holds, given their gradient ``grad``.

        Without ``cache`` the forward pass is recomputed with dropout off;
        pass the cache from ``score_train`` to backpropagate through its mask.
        """
        grad = np.array(grad, dtype=np.float64)  # the b2 gradient; a copy
        _check_upstream(grad)
        ids = rep.ids_of(rows)
        if cache is None:
            pre = self._pre_hidden(SpanRepresentation(ids, rep.dim))
            keep = None
        else:
            pre = cache["pre"][rows]
            keep = None if cache["keep"] is None else cache["keep"][rows]
        h = np.maximum(pre, 0.0)
        # one product per span, like the forward pass
        dh = np.empty_like(pre)
        for row, upstream in zip(dh, grad):
            row[:] = self.W2 @ upstream
        if keep is not None:
            h = h * keep
            dh = dh * keep
        return SentenceGradient(ids, dh * (pre > 0.0), h, grad)

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def sgd_step(self, grads: list[SentenceGradient], lr: float,
                 count: int | None = None) -> None:
        """Plain SGD on the batch mean.  Each parameter takes its updates
        span by span, as if every span were a step of its own."""
        scale = lr / (count if count is not None else len(grads))
        for g in grads:
            for ids, updates in g.feature_updates(scale):
                _subtract_rows(self.W1, ids, updates)
            for hidden, feature, upstream in zip(g.hidden, g.feature, g.grad):
                self.b1 -= scale * feature
                self.W2 -= scale * np.outer(hidden, upstream)
                self.b2 -= scale * upstream
