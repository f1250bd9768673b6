"""Per-span label scores.

A sentence of n characters has n(n+1)/2 spans (i, j), 0 <= i < j <= n, and
each span gets one real score per label.  Scores come from one of three
places: the trainable scorers in ``scorers`` (built on the hashed boundary
features below), a score file written by an external model, or the test
oracle ``oracle_scores``.  Wherever they come from, they are packed into an
(n(n+1)/2, L) array whose row ``span_row(n, i, j)`` holds span (i, j), so
the rows follow ``iter_spans`` order, which is also the line order of a
score file.

Span features are a deterministic stand-in for a neural span encoder:
boundary character unigrams at i-1, i, j-1, j (with sentinel code points
past the edges), the two boundary bigrams, the span string itself when it
has at most 4 characters, and a span-length bucket.  Feature strings are
hashed with keyed blake2b so ids are stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .chartree import GoldSpanMap
from .labels import CHAR_LABEL, NULL_LABEL, NULL_TOKEN, SUBWORD_LABEL

# Private-use code points so sentinels can never collide with real text.
LEFT_SENTINEL = ""
RIGHT_SENTINEL = ""

DEFAULT_DIM = 1 << 20

_HASH_KEY = b"charspan.spanfeat.v1"

_LENGTH_BUCKETS = ((1, "1"), (2, "2"), (3, "3"), (4, "4"), (8, "5-8"))


class LabelVocab:
    """Bijection between span labels and contiguous ids; "∅" is id 0."""

    def __init__(self, labels: Sequence[str]):
        labels = list(labels)
        if not labels or labels[0] != NULL_LABEL:
            raise ValueError(f"label id 0 must be the null label {NULL_LABEL!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in vocabulary")
        self.labels = labels
        self.index = {lab: k for k, lab in enumerate(labels)}
        self.null_id = 0

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, lid: int) -> str:
        return self.labels[lid]

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def __repr__(self) -> str:
        return f"LabelVocab({len(self.labels)} labels)"


def build_vocab(char_trees: Iterable) -> LabelVocab:
    """Collect "∅" plus every label of every tree, in first-appearance order.

    "@1" and "@2" are appended when the corpus happens not to contain them
    (e.g. no word longer than two characters), since decoding needs both.
    """
    labels = [NULL_LABEL]
    seen = {NULL_LABEL}

    def walk(ct) -> None:
        if ct.label not in seen:
            seen.add(ct.label)
            labels.append(ct.label)
        if ct.char is None:
            walk(ct.left)
            walk(ct.right)

    empty = True
    for tree in char_trees:
        empty = False
        walk(tree)
    if empty:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    for required in (CHAR_LABEL, SUBWORD_LABEL):
        if required not in seen:
            labels.append(required)
            seen.add(required)
    return LabelVocab(labels)


def iter_spans(n: int) -> Iterator[tuple[int, int]]:
    """All spans of an n-character sentence in lexicographic (i, j) order."""
    for i in range(n):
        for j in range(i + 1, n + 1):
            yield i, j


def span_row(n: int, i, j):
    """Row of span (i, j) in a packed score array: its index in
    ``iter_spans(n)``.  ``i`` and ``j`` may be integer arrays."""
    return i * (2 * n - i + 1) // 2 + j - i - 1


def span_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of all spans, one entry per packed row."""
    return np.triu_indices(n + 1, k=1)


class SpanScores:
    """Packed (n(n+1)/2, L) array of per-span label scores.

    Row ``span_row(n, i, j)`` holds span (i, j)'s scores, so the rows run
    in ``iter_spans`` order, the line order of a score file.  Values are
    finite on creation; decoder masks may later write -inf.
    """

    def __init__(self, n: int, num_labels: int, values: np.ndarray | None = None,
                 validate: bool = True):
        if n < 1:
            raise ValueError("sentence length must be at least 1")
        shape = (n * (n + 1) // 2, num_labels)
        if values is None:
            values = np.zeros(shape)
            validate = False
        values = np.asarray(values, dtype=np.float64)
        if values.shape != shape:
            raise ValueError(f"expected score array of shape {shape}, got {values.shape}")
        if validate:
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                starts, ends = span_bounds(n)
                k = int(bad.argmax())
                raise ValueError(f"non-finite score at span ({starts[k]}, {ends[k]})")
        self.n = n
        self.num_labels = num_labels
        self.values = values

    def copy(self) -> "SpanScores":
        return SpanScores(self.n, self.num_labels, self.values.copy(), validate=False)


@dataclass
class SpanRepresentation:
    """Hashed feature ids of one span, or an (S, 8) id matrix of S spans.

    Every id is < dim; in a matrix, -1 marks the missing span-string
    feature of spans wider than 4 characters.
    """

    ids: np.ndarray
    dim: int


def _feature_id(feature: str, dim: int) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8,
                             key=_HASH_KEY).digest()
    return int.from_bytes(digest, "little") % dim


def _length_bucket(length: int) -> str:
    for upper, name in _LENGTH_BUCKETS:
        if length <= upper:
            return name
    return "9+"


def span_representation(chars: Sequence[str], i, j,
                        dim: int = DEFAULT_DIM) -> SpanRepresentation:
    """Deterministic feature ids for span (i, j) of ``chars``.

    With integer ``i`` and ``j`` the ids are the span's 7 or 8 features in
    feature order: L, B, E, R, LB, ER, then S (only for spans of at most 4
    characters), then W.  With equal-length integer arrays the result is an
    (S, 8) matrix with one row per span in the same column order and -1 in
    the S column of wider spans.  Each distinct feature string among the
    requested spans is hashed once.
    """
    starts = np.atleast_1d(np.asarray(i, dtype=np.int64))
    ends = np.atleast_1d(np.asarray(j, dtype=np.int64))
    if starts.ndim != 1 or starts.shape != ends.shape:
        raise ValueError("span starts and ends must be equal-length 1-D arrays")
    n = len(chars)
    bad = ~((0 <= starts) & (starts < ends) & (ends <= n))
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"span ({starts[k]}, {ends[k]}) out of range for length {n}")
    if dim <= 0:
        raise ValueError("feature dimension must be positive")
    memo: dict[str, int] = {}

    def hashed(feature: str) -> int:
        fid = memo.get(feature)
        if fid is None:
            fid = memo[feature] = _feature_id(feature, dim)
        return fid

    def gather(keys: np.ndarray, *features) -> np.ndarray:
        # one column per feature: its ids for each distinct key, then per span
        distinct, where = np.unique(keys, return_inverse=True)
        table = np.array([[hashed(feature(key)) for feature in features]
                          for key in distinct.tolist()], dtype=np.int64)
        return table.reshape(len(distinct), len(features))[where]

    # padded[p] is the character before position p, padded[p + 1] the one at p
    padded = [LEFT_SENTINEL, *chars, RIGHT_SENTINEL]
    widths = ends - starts
    short = widths <= 4
    ids = np.full((len(starts), 8), -1, dtype=np.int64)
    ids[:, [0, 1, 4]] = gather(starts, lambda p: "L:" + padded[p],
                               lambda p: "B:" + padded[p + 1],
                               lambda p: "LB:" + padded[p] + padded[p + 1])
    ids[:, [2, 3, 5]] = gather(ends, lambda q: "E:" + padded[q],
                               lambda q: "R:" + padded[q + 1],
                               lambda q: "ER:" + padded[q] + padded[q + 1])
    # a short span is keyed by start * 5 + width
    ids[short, 6:7] = gather(starts[short] * 5 + widths[short], lambda key: (
        "S:" + "".join(chars[key // 5:key // 5 + key % 5])))
    ids[:, 7:] = gather(widths, lambda w: "W:" + _length_bucket(w))
    if np.ndim(i) == 0 and np.ndim(j) == 0:
        row = ids[0]
        return SpanRepresentation(row[row >= 0], dim)
    return SpanRepresentation(ids, dim)


def score_spans(scorer, chars: Sequence[str], vocab: LabelVocab,
                train_mode: bool = False,
                rng: np.random.Generator | None = None) -> SpanScores:
    """Score every span of ``chars`` with ``scorer``, all in one batch.

    ``train_mode`` turns on dropout (scorers without dropout ignore it) and
    then requires a caller-provided ``rng`` so runs stay reproducible.
    """
    if scorer.num_labels != len(vocab):
        raise ValueError(f"scorer produces {scorer.num_labels} labels, "
                         f"vocabulary has {len(vocab)}")
    if train_mode and rng is None:
        raise ValueError("train_mode scoring needs an explicit rng")
    n = len(chars)
    starts, ends = span_bounds(n)
    rep = span_representation(chars, starts, ends, scorer.dim)
    if train_mode:
        rows, _ = scorer.score_train(rep, rng)
    else:
        rows = scorer.score(rep)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"scorer produced non-finite values at span "
                         f"({starts[k]}, {ends[k]})")
    return SpanScores(n, len(vocab), rows, validate=False)


def oracle_scores(gold: GoldSpanMap, vocab: LabelVocab) -> SpanScores:
    """1.0 at every gold (span, label), 0.0 everywhere else."""
    scores = SpanScores(gold.n, len(vocab))
    for (i, j), label in gold.entries.items():
        if label not in vocab.index:
            raise ValueError(f"gold label {label!r} missing from vocabulary")
        scores.values[span_row(gold.n, i, j), vocab.index[label]] = 1.0
    return scores


# ---------------------------------------------------------------------------
# score files
#
#   #scores <sentence-id> <n> <L>
#   #labels NULL <label_1> ... <label_{L-1}>
#   <i> <j> <v_0> ... <v_{L-1}>     one line per span, lexicographic order
#
# with a blank line after each sentence block.  The span lines are the rows
# of the packed score array, in order.


def write_scores(scores: SpanScores, vocab: LabelVocab, sink: TextIO,
                 sentence_id: str = "0") -> None:
    if len(vocab) != scores.num_labels:
        raise ValueError("vocabulary size does not match score array")
    header_labels = [NULL_TOKEN if lab == NULL_LABEL else lab for lab in vocab.labels]
    sink.write(f"#scores {sentence_id} {scores.n} {scores.num_labels}\n")
    sink.write("#labels " + " ".join(header_labels) + "\n")
    for (i, j), row in zip(iter_spans(scores.n), scores.values):
        if not np.isfinite(row).all():
            raise ValueError(f"refusing to write non-finite score at span ({i}, {j})")
        sink.write(f"{i} {j} " + " ".join(format(v, ".17g") for v in row) + "\n")
    sink.write("\n")


def _read_block(lines: Iterator[tuple[int, str]]) -> tuple[str, SpanScores, LabelVocab] | None:
    header = None
    for lineno, line in lines:
        if line.strip():
            header = (lineno, line.strip())
            break
    if header is None:
        return None
    lineno, text = header
    parts = text.split()
    if parts[0] != "#scores" or len(parts) != 4:
        raise ValueError(f"line {lineno}: missing or malformed '#scores' header")
    sentence_id = parts[1]
    try:
        n, num_labels = int(parts[2]), int(parts[3])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer n or L in header") from None
    if n < 1 or num_labels < 1:
        raise ValueError(f"line {lineno}: n and L must be positive")
    try:
        lineno, text = next(lines)
    except StopIteration:
        raise ValueError("missing '#labels' line") from None
    parts = text.split()
    if not parts or parts[0] != "#labels":
        raise ValueError(f"line {lineno}: expected '#labels' line")
    labels = [NULL_LABEL if lab == NULL_TOKEN else lab for lab in parts[1:]]
    if len(labels) != num_labels:
        raise ValueError(f"line {lineno}: header declares {num_labels} labels, "
                         f"found {len(labels)}")
    vocab = LabelVocab(labels)
    scores = SpanScores(n, num_labels)
    for k, (i, j) in enumerate(iter_spans(n)):
        try:
            lineno, text = next(lines)
        except StopIteration:
            raise ValueError(f"expected {len(scores.values)} span lines, "
                             f"found {k}") from None
        parts = text.split()
        if len(parts) != 2 + num_labels:
            raise ValueError(f"line {lineno}: expected 2 offsets and {num_labels} "
                             f"values, found {len(parts)} fields")
        if parts[0] != str(i) or parts[1] != str(j):
            raise ValueError(f"line {lineno}: expected span ({i}, {j}), "
                             f"found ({parts[0]}, {parts[1]})")
        try:
            row = [float(v) for v in parts[2:]]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric score value") from None
        if not all(np.isfinite(row)):
            raise ValueError(f"line {lineno}: non-finite score value")
        scores.values[k] = row
    return sentence_id, scores, vocab


def _numbered(source: TextIO) -> Iterator[tuple[int, str]]:
    for k, line in enumerate(source, start=1):
        yield k, line


def read_score_file(source: TextIO) -> tuple[list[tuple[str, SpanScores]], LabelVocab]:
    """Read every sentence block; all blocks must share one label set."""
    lines = _numbered(source)
    out: list[tuple[str, SpanScores]] = []
    vocab: LabelVocab | None = None
    while True:
        block = _read_block(lines)
        if block is None:
            break
        sentence_id, scores, block_vocab = block
        if vocab is None:
            vocab = block_vocab
        elif block_vocab.labels != vocab.labels:
            raise ValueError(f"sentence {sentence_id}: label set differs from "
                             f"the first block")
        out.append((sentence_id, scores))
    if vocab is None:
        raise ValueError("missing header: empty score file")
    return out, vocab
