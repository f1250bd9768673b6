"""The scalar reference that ``cky_decode`` and ``decode_sentence`` are
checked against at the lengths they run at: one Python float at a time,
over dict charts, sharing no code with the decoder."""

from charspan.chartree import CharTree
from charspan.labels import NULL_LABEL, is_char_label
from charspan.scoring import iter_spans, span_row


def reference_decode(scores, vocab, config, chars):
    """``(tree, total)`` as ``cky_decode`` defines them.

    Each span takes the first maximum, by a plain scan, among the labels
    ``config`` allows on it.  A CKY over dict charts then takes, for each
    span, the smallest split k of the largest ``left + right``, and the
    span's total is ``label + (left + right)``.
    """
    n = scores.n

    def allowed(width1: bool, root: bool) -> list[int]:
        return [lid for lid, name in enumerate(vocab.labels)
                if not (config.constrain_char_labels and is_char_label(name) != width1)
                and not (config.require_nonnull_root and root and name == NULL_LABEL)]

    kinds = {(w, r): allowed(w, r) for w in (False, True) for r in (False, True)}
    label = {}
    # the totals of the finished spans (i, j): by_start[i][j] and by_end[j][i]
    by_start = [{} for _ in range(n + 1)]
    by_end = [{} for _ in range(n + 1)]
    for (i, j), row in zip(iter_spans(n), scores.values.tolist()):
        best = None
        for lid in kinds[j - i == 1, (i, j) == (0, n)]:
            if best is None or row[lid] > row[best]:
                best = lid
        if best is None:
            raise ValueError(f"masking left span ({i}, {j}) with no usable label")
        label[i, j] = best
        by_start[i][j] = by_end[j][i] = row[best]
    split = {}
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            left, right = by_start[i], by_end[j]
            best_k = parts = None
            for k in range(i + 1, j):
                value = left[k] + right[k]
                if best_k is None or value > parts:
                    best_k, parts = k, value
            split[i, j] = best_k
            by_start[i][j] = by_end[j][i] = by_start[i][j] + parts

    def build(i, j):
        name = vocab.labels[label[i, j]]
        if j - i == 1:
            return CharTree(name, char=chars[i], start=i)
        return CharTree(name, left=build(i, split[i, j]), right=build(split[i, j], j))

    return build(0, n), by_start[0][n]


class TableScorer:
    """A scorer whose scores for any sentence of ``scores.n`` characters
    are the rows of ``scores``, for ``decode_sentence``."""

    dim = 16

    def __init__(self, scores):
        self.n, self.values, self.num_labels = scores.n, scores.values, scores.num_labels

    def score(self, rep):
        return self.values.copy()

    def start_blocks(self, rep):
        def blocks(p0, p1, out):
            rows = self.values[span_row(self.n, p0, p0 + 1):span_row(self.n, p1, p1 + 1)]
            out[:len(rows)] = rows
            return out[:len(rows)]
        return blocks
