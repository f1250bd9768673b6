"""The per-span reference that the scorers' sentence batches are checked
against: one span's features, its rows added one by one, and its scores."""

import numpy as np

from charspan.scoring import span_row


def _gather_sum(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per span, the ``table`` rows at its ids added one by one in feature
    order, starting from +0.0; ids of -1 are skipped.

    This is the order ``table[ids].sum(axis=0)`` adds a span's rows in when
    the rows are at least 8 wide.  It is the per-span reference that
    ``scorers._sentence_sum``, which adds in the same order, is checked
    against.
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


def span_ids(rep, i: int, j: int) -> np.ndarray:
    """The feature ids of span (i, j) of the sentence whose position tables
    ``rep`` are, in feature order, without the -1 of a missing span-string
    feature."""
    n = rep.by_start.shape[1]
    ids = rep.ids_of(np.array([span_row(n, i, j)]))[0]
    return ids[ids >= 0]


def linear_score(scorer, ids: np.ndarray) -> np.ndarray:
    """One span's ``LinearScorer`` scores: the rows of its ids, an id
    without a row skipped."""
    return _gather_sum(scorer.rows, scorer._positions(ids))


def mlp_pre_hidden(head, ids: np.ndarray) -> np.ndarray:
    """One span's ``MLPHead`` hidden layer before the rectifier."""
    return _gather_sum(head.W1, ids) + head.b1


def mlp_score(head, ids: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """One span's ``MLPHead`` scores, its hidden layer scaled by the
    dropout mask ``keep`` when one is given."""
    h = np.maximum(mlp_pre_hidden(head, ids), 0.0)
    if keep is not None:
        h = h * keep
    return h @ head.W2 + head.b2
