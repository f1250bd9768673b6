"""Trainable span scorers over hashed span features.

Both scorers map a SpanRepresentation (a bag of feature ids) to one score
per label, or an (S, 8) id matrix to an (S, L) score array in one batch.
``LinearScorer`` is a hashed linear model whose weights live in a compact
table keyed by hashed id; ``MLPHead`` is a two-layer perceptron with a
rectifier and inverted dropout, so the inference path needs no rescaling.
Gradients for the first-layer weights come back sparse, as (ids, rows)
pairs, because only the feature rows a span touches receive gradient.
"""

from __future__ import annotations

import numpy as np

from .scoring import SpanRepresentation

Gradients = dict


def _gather_sum(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per span, the ``table`` rows at its ids added one by one in feature
    order, starting from +0.0; ids of -1 are skipped.

    This is the order ``table[ids].sum(axis=0)`` adds a span's rows in when
    the rows are at least 8 wide, so a batch scores exactly like single
    spans.
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


def span_cache(cache: dict | None, k: int) -> dict | None:
    """Span k's part of the cache of a batch ``score_train``."""
    if cache is None:
        return None
    return {name: None if value is None else value[k]
            for name, value in cache.items()}


def _apply_sgd(params: dict[str, np.ndarray], grads: list[Gradients], lr: float,
               count: int | None = None) -> None:
    # Plain SGD on the batch mean; ``count`` is the number of training
    # examples the entries in ``grads`` came from (one example usually
    # contributes many per-span gradient dicts).
    scale = lr / (count if count is not None else len(grads))
    for g in grads:
        for name, val in g.items():
            if isinstance(val, tuple):
                ids, rows = val
                np.subtract.at(params[name], ids, scale * rows)
            else:
                params[name] -= scale * val


class LinearScorer:
    """score(rep) = sum of weight rows at the span's feature ids.

    The weights of the (dim, L) matrix are held as sorted hashed ``keys``
    and their ``rows``; an id that is not a key has an all-zero row.
    Collisions are those of the dense matrix, so scores are too.
    """

    def __init__(self, dim: int, num_labels: int, keys=None, rows=None):
        if dim <= 0:
            raise ValueError("feature dimension must be positive")
        keys = np.asarray([] if keys is None else keys, dtype=np.int64)
        rows = (np.zeros((len(keys), num_labels)) if rows is None
                else np.asarray(rows, dtype=np.float64))
        if keys.ndim != 1 or rows.shape != (len(keys), num_labels):
            raise ValueError(f"expected {num_labels}-wide rows for {len(keys)} keys, "
                             f"got shape {rows.shape}")
        if len(keys) and (keys[0] < 0 or keys[-1] >= dim or (np.diff(keys) <= 0).any()):
            raise ValueError(f"keys must be strictly increasing ids below {dim}")
        self.dim = dim
        self._set(keys, rows)

    def _set(self, keys: np.ndarray, rows: np.ndarray) -> None:
        # a trailing zero row answers every id that is not a key; ``rows``
        # is a view, so updates to it land in the table
        self._table = np.zeros((len(keys) + 1, rows.shape[1]))
        self._table[:-1] = rows
        self.keys = keys
        self.rows = self._table[:-1]

    @property
    def num_labels(self) -> int:
        return self._table.shape[1]

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        """Table row of each id; ids that are not keys get the zero row,
        and -1 stays -1."""
        pos = np.searchsorted(self.keys, ids)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == ids[hit]
        return np.where(hit, pos, np.where(ids < 0, -1, len(self.keys)))

    def register(self, ids) -> None:
        """Give every id in ``ids`` (-1 aside) a row, all zero if it is new."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        new = np.setdiff1d(ids[ids >= 0], self.keys)
        if not new.size:
            return
        if new[-1] >= self.dim:
            raise ValueError(f"feature id {new[-1]} is not below {self.dim}")
        keys = np.union1d(self.keys, new)
        rows = np.zeros((len(keys), self.num_labels))
        rows[np.searchsorted(keys, self.keys)] = self.rows
        self._set(keys, rows)

    def score(self, rep: SpanRepresentation) -> np.ndarray:
        return _gather_sum(self._table, self._positions(rep.ids))

    def score_train(self, rep: SpanRepresentation, rng) -> tuple[np.ndarray, None]:
        # No dropout in the linear model; train scoring equals inference.
        return self.score(rep), None

    def backward(self, rep: SpanRepresentation, upstream: np.ndarray,
                 cache=None) -> Gradients:
        if not np.isfinite(upstream).all():
            raise ValueError("non-finite upstream gradient")
        rows = np.tile(upstream, (len(rep.ids), 1))
        return {"W": (rep.ids, rows)}

    def params(self) -> dict[str, np.ndarray]:
        return {"keys": self.keys, "rows": self.rows}

    def sgd_step(self, grads: list[Gradients], lr: float,
                 count: int | None = None) -> None:
        """Plain SGD on the batch mean; ids without a row get one first.

        Gradient rows land one by one in order, so every weight takes its
        updates in the order, and with the rounding, of ``np.subtract.at``
        on the dense matrix.
        """
        if not grads:
            return
        self.register(np.concatenate([g["W"][0] for g in grads]))
        scale = lr / (count if count is not None else len(grads))
        for g in grads:
            ids, rows = g["W"]
            np.subtract.at(self.rows, np.searchsorted(self.keys, ids), scale * rows)


class MLPHead:
    """Two-layer perceptron head: relu(x W1 + b1) W2 + b2.

    ``dropout`` is applied to the hidden layer only in ``score_train``,
    with inverted scaling.  The weights are drawn from ``rng``, or copied
    from ``params`` (W1, b1, W2, b2 of the ``param_shapes`` shapes).
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
            params = {name: np.array(params[name], dtype=np.float64)
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
        return _gather_sum(self.W1, rep.ids) + self.b1

    def _output(self, h: np.ndarray) -> np.ndarray:
        if h.ndim == 1:
            return h @ self.W2 + self.b2
        # one product per span: a batched H @ W2 need not round like h @ W2
        out = np.empty((len(h), self.num_labels))
        for row, hidden in zip(out, h):
            row[:] = hidden @ self.W2
        return out + self.b2

    def score(self, rep: SpanRepresentation) -> np.ndarray:
        return self._output(np.maximum(self._pre_hidden(rep), 0.0))

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

    def backward(self, rep: SpanRepresentation, upstream: np.ndarray,
                 cache: dict | None = None) -> Gradients:
        return mlp_backward(self, rep, upstream, cache)

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def sgd_step(self, grads: list[Gradients], lr: float,
                 count: int | None = None) -> None:
        _apply_sgd(self.params(), grads, lr, count)


def mlp_backward(head: MLPHead, rep: SpanRepresentation, upstream: np.ndarray,
                 cache: dict | None = None) -> Gradients:
    """Analytic gradients of the MLP forward map at one span.

    Without ``cache`` the forward pass is recomputed with dropout off; pass
    the cache from ``score_train`` to backpropagate through its mask.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if not np.isfinite(upstream).all():
        raise ValueError("non-finite upstream gradient")
    if cache is None:
        pre = head._pre_hidden(rep)
        keep = None
    else:
        pre = cache["pre"]
        keep = cache["keep"]
    h = np.maximum(pre, 0.0)
    if keep is not None:
        h = h * keep
    g_W2 = np.outer(h, upstream)
    g_b2 = upstream.copy()
    dh = head.W2 @ upstream
    if keep is not None:
        dh = dh * keep
    dpre = dh * (pre > 0.0)
    rows = np.tile(dpre, (len(rep.ids), 1))
    return {"W1": (rep.ids, rows), "b1": dpre, "W2": g_W2, "b2": g_b2}
