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
hashed with keyed blake2b so ids are stable across runs and platforms.  The
constructor is imported from ``_blake2``, where ``hashlib.blake2b`` comes
from too: hashlib never uses OpenSSL's blake2, and only ``_blake2`` takes
a key.  ``import hashlib`` would also load OpenSSL's libcrypto, about
3.8 MB more peak RSS for a process that has imported numpy (Linux).
Each feature depends on one position or on the width alone (L, B and LB
on the span's start, E, R and ER on its end, S on the start and a width
of at most 4, W on the width), so ``span_representation`` hashes a whole
sentence's features into per-position tables, ``PositionIds``, about 12n
ids for n characters.  The scorers sum every span from the table rows of
its positions (see ``scorers``); the ids of chosen spans, in feature
order, are read from the tables with ``ids_of``.
"""

from __future__ import annotations

from _blake2 import blake2b
from functools import cached_property
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .chartree import GoldSpanMap
from .labels import (CHAR_LABEL, NULL_LABEL, NULL_TOKEN, SUBWORD_LABEL,
                     is_char_label)
from .treebank import DataError, decode_text

# Private-use code points so sentinels can never collide with real text.
LEFT_SENTINEL = ""
RIGHT_SENTINEL = ""

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

    @cached_property
    def char_final(self) -> np.ndarray:
        """Read-only boolean mask of the "@1"-final labels, by id."""
        mask = np.array([is_char_label(lab) for lab in self.labels], dtype=bool)
        mask.flags.writeable = False
        return mask

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
    empty = True
    for tree in char_trees:
        empty = False
        stack = [tree]  # pre-order, left subtree first
        while stack:
            ct = stack.pop()
            if ct.label not in seen:
                seen.add(ct.label)
                labels.append(ct.label)
            if ct.char is None:
                stack += (ct.right, ct.left)
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


class PositionIds(NamedTuple):
    """The feature ids of one n-character sentence, by position: every
    span's ids are entries of these tables.

    ``by_start[:, p]`` holds L, B and LB of the spans that start at p,
    ``by_end[:, p]`` E, R and ER of the spans that end at p + 1,
    ``by_short[w - 1, p]`` S of span (p, p + w) for widths 1-4 (-1 past
    the end of the sentence), and ``by_width[w]`` W of the spans of width
    w (``by_width[0]`` is -1).
    """

    by_start: np.ndarray  # (3, n)
    by_end: np.ndarray    # (3, n)
    by_short: np.ndarray  # (4, n)
    by_width: np.ndarray  # (n + 1,)

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The (len(rows), 8) id matrix of the spans at packed ``rows``, in
        feature order L, B, E, R, LB, ER, S, W, with -1 in the S column of
        spans wider than 4 characters; nothing keeps it."""
        starts, ends = span_bounds(self.by_start.shape[1])
        starts, ends = starts[rows], ends[rows]
        widths = ends - starts
        ids = np.empty((len(starts), 8), dtype=np.int64)
        ids[:, [0, 1, 4]] = self.by_start[:, starts].T
        ids[:, [2, 3, 5]] = self.by_end[:, ends - 1].T
        ids[:, 6] = np.where(widths <= 4,
                             self.by_short[np.minimum(widths, 4) - 1, starts], -1)
        ids[:, 7] = self.by_width[widths]
        return ids


# the keyed state, made once; each feature string updates a copy of it
_KEYED_HASH = blake2b(digest_size=8, key=_HASH_KEY)


def _feature_ids(features: Iterable[str], dim: int) -> np.ndarray:
    """The ids of ``features``: each string's keyed digest, read as a
    little-endian 64-bit integer, modulo ``dim``."""
    digests = []
    for feature in features:
        h = _KEYED_HASH.copy()
        h.update(feature.encode("utf-8"))
        digests.append(h.digest())
    ids = np.frombuffer(b"".join(digests), "<u8") % np.uint64(dim)
    return ids.astype(np.int64)


def _length_bucket(length: int) -> str:
    for upper, name in _LENGTH_BUCKETS:
        if length <= upper:
            return name
    return "9+"


def span_representation(chars: Sequence[str], dim: int) -> PositionIds:
    """Deterministic feature ids below ``dim`` for every span of ``chars``.

    The features of every position of ``chars`` are hashed, each distinct
    string once, into the per-position id tables of ``PositionIds``.
    """
    if dim <= 0:
        raise ValueError("feature dimension must be positive")
    n = len(chars)
    # Position p sits between padded[p] and padded[p + 1]: the characters
    # before and at p.  The features of every table, in table order:
    padded = [LEFT_SENTINEL, *chars, RIGHT_SENTINEL]
    around = list(zip(padded, padded[1:]))
    features = [f for a, b in around[:n] for f in ("L:" + a, "B:" + b, "LB:" + a + b)]
    features += [f for a, b in around[1:] for f in ("E:" + a, "R:" + b, "ER:" + a + b)]
    widths = range(1, min(n, 4) + 1)
    for w in widths:
        features += ["S:" + "".join(chars[p:p + w]) for p in range(n - w + 1)]
    features += ["W:" + _length_bucket(w) for w in range(1, n + 1)]
    # each distinct string is hashed once
    slots: dict[str, int] = {}
    index = [slots.setdefault(f, len(slots)) for f in features]
    ids = _feature_ids(slots, dim)[index]
    by_start = ids[:3 * n].reshape(n, 3).T
    by_end = ids[3 * n:6 * n].reshape(n, 3).T
    by_short = np.full((4, n), -1, dtype=np.int64)
    k = 6 * n
    for w in widths:
        by_short[w - 1, :n - w + 1] = ids[k:k + n - w + 1]
        k += n - w + 1
    by_width = np.concatenate(([-1], ids[k:]))
    return PositionIds(by_start, by_end, by_short, by_width)


def score_spans(scorer, chars: Sequence[str], vocab: LabelVocab) -> SpanScores:
    """Score every span of ``chars`` with ``scorer``, all in one batch."""
    if scorer.num_labels != len(vocab):
        raise ValueError(f"scorer produces {scorer.num_labels} labels, "
                         f"vocabulary has {len(vocab)}")
    n = len(chars)
    rows = scorer.score(span_representation(chars, scorer.dim))
    check_scored(rows, n)
    return SpanScores(n, len(vocab), rows, validate=False)


def check_scored(rows: np.ndarray, n: int, first_row: int = 0) -> None:
    """Raise ValueError naming the first span, in row order, with a
    non-finite score among ``rows``, the packed rows of an n-character
    sentence from ``first_row`` on."""
    # min and max are NaN or infinite when any value is, and make no
    # (S, L) temporary; the first bad span is located only on failure
    if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        k = first_row + int((~np.isfinite(rows).all(axis=1)).argmax())
        starts, ends = span_bounds(n)
        raise ValueError(f"scorer produced non-finite values at span "
                         f"({starts[k]}, {ends[k]})")


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
# of the packed score array, in order.  Blocks are read one at a time, so a
# reader holds one block's array, not the file's.
#
# Fields are separated by any whitespace (str.split's), and a value is
# anything Python's float() takes.  A block's span lines are read in chunks
# of at most _CHUNK_VALUES values: the offsets line by line, the values by
# one call of numpy's C text parser (np.loadtxt, numpy >= 1.23), which gives
# bitwise the values of float(), sign of zero included.  A chunk the parser
# cannot vouch for is read again line by line with float(), so an error
# always names the first bad line in file order.  On 8 sentences at L = 439
# (48.9 MB), `parse --score-file` went from 4.69 sentences/sec with float()
# on every line to 6.22 (BENCH_13.json).

# The package's one working-set budget, in values: 0.5 MB of floats.  It
# sizes the chunks of score-file reads (from about 1.2 MB of 17-digit
# text), of checkpoint decoding (decoder.decode_sentence), of SGD updates
# (scorers.SentenceGradient.feature_updates) and of checkpoint saving
# (trainer.Checkpoint.save).
_CHUNK_VALUES = 1 << 16


def write_scores(scores: SpanScores, vocab: LabelVocab, sink: TextIO,
                 sentence_id: str = "0") -> None:
    if len(vocab) != scores.num_labels:
        raise ValueError("vocabulary size does not match score array")
    header_labels = [NULL_TOKEN if lab == NULL_LABEL else lab for lab in vocab.labels]
    sink.write(f"#scores {sentence_id} {scores.n} {scores.num_labels}\n")
    sink.write("#labels " + " ".join(header_labels) + "\n")
    # "%.17g" on a float gives the bytes of format(v, ".17g"), in one operation
    # per row; rows are written one by one, never as a block-sized string
    row_format = " ".join(["%.17g"] * scores.num_labels)
    for (i, j), row in zip(iter_spans(scores.n), scores.values):
        if not np.isfinite(row).all():
            raise ValueError(f"refusing to write non-finite score at span ({i}, {j})")
        sink.write(f"{i} {j} " + row_format % tuple(row.tolist()) + "\n")
    sink.write("\n")


def _parse_row(row: np.ndarray, lineno: int, text: str, i: int, j: int, path) -> None:
    """Parse span line ``text``, which must hold span (i, j), into ``row``:
    the reference for ``_parse_rows`` and the source of its error messages."""
    parts = text.split()
    if len(parts) != 2 + len(row):
        raise DataError(f"expected 2 offsets and {len(row)} values, found "
                        f"{len(parts)} fields", path, lineno)
    if parts[0] != str(i) or parts[1] != str(j):
        raise DataError(f"expected span ({i}, {j}), found ({parts[0]}, {parts[1]})",
                        path, lineno)
    try:
        row[:] = list(map(float, parts[2:]))
    except ValueError:
        raise DataError("non-numeric score value", path, lineno) from None
    if not np.isfinite(row).all():
        raise DataError("non-finite score value", path, lineno)


def _parse_rows(rows: np.ndarray, chunk: list[tuple[int, str]],
                offsets: list[tuple[int, int]], path) -> None:
    """Parse the span lines ``chunk``, which must hold the spans ``offsets``,
    into ``rows``, with the values and errors of ``_parse_row`` on each line.

    The values go through one ``np.loadtxt`` call.  Whenever it cannot
    vouch for the chunk (an offset, a field count, a value it cannot parse
    or a non-finite one), the lines go through ``_parse_row`` one by one,
    which raises the first fault in line order or, for syntax only Python's
    ``float`` accepts (``1_0``), parses them.
    """
    rests = []
    for (_, text), (i, j) in zip(chunk, offsets):
        parts = text.split(None, 2)
        if len(parts) != 3 or parts[0] != str(i) or parts[1] != str(j):
            break
        rests.append(parts[2])
    else:
        try:
            # comments=None: with the default '#', "0.5 #x" would parse as 0.5
            values = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            values = None
        if (values is not None and values.shape == rows.shape
                and np.isfinite(values).all()):
            rows[:] = values
            return
    for row, (lineno, text), (i, j) in zip(rows, chunk, offsets):
        _parse_row(row, lineno, text, i, j, path)


def _read_block(lines: Iterator[tuple[int, str]], path, vocab: LabelVocab | None
                ) -> tuple[str, SpanScores, LabelVocab] | None:
    header = None
    for lineno, line in lines:
        if line.strip():
            header = (lineno, line.strip())
            break
    if header is None:
        return None
    header_line, text = header
    parts = text.split()
    if parts[0] != "#scores" or len(parts) != 4:
        raise DataError("missing or malformed '#scores' header", path, header_line)
    sentence_id = parts[1]
    try:
        n, num_labels = int(parts[2]), int(parts[3])
    except ValueError:
        raise DataError("non-integer n or L in header", path, header_line) from None
    if n < 1 or num_labels < 1:
        raise DataError("n and L must be positive", path, header_line)
    try:
        lineno, text = next(lines)
    except StopIteration:
        raise DataError("missing '#labels' line", path, header_line) from None
    parts = text.split()
    if not parts or parts[0] != "#labels":
        raise DataError("expected '#labels' line", path, lineno)
    labels = [NULL_LABEL if lab == NULL_TOKEN else lab for lab in parts[1:]]
    if len(labels) != num_labels:
        raise DataError(f"header declares {num_labels} labels, found {len(labels)}",
                        path, lineno)
    if labels[0] != NULL_LABEL:
        raise DataError(f"the first label must be {NULL_TOKEN}, found {parts[1]!r}",
                        path, lineno)
    if vocab is None:
        try:
            vocab = LabelVocab(labels)
        except ValueError as e:  # a label given twice
            raise DataError(str(e), path, lineno) from None
    elif labels != vocab.labels:
        raise DataError(f"sentence {sentence_id}: label set differs from the "
                        f"first block", path, lineno)
    num_spans = n * (n + 1) // 2
    try:
        # one allocation, which the span lines are parsed straight into
        scores = SpanScores(n, num_labels)
    except (MemoryError, ValueError):  # numpy: "array is too big" past the address space
        raise DataError(f"header claims {num_spans} spans of {num_labels} scores, "
                        f"too many to allocate", path, header_line) from None
    spans = iter_spans(n)
    per_chunk = max(1, _CHUNK_VALUES // num_labels)
    for start in range(0, num_spans, per_chunk):
        rows = scores.values[start:start + per_chunk]
        chunk = list(islice(lines, len(rows)))
        if len(chunk) < len(rows):
            # the file ends inside this chunk: a bad line before that comes first
            for row, (lineno, text), (i, j) in zip(rows, chunk, spans):
                _parse_row(row, lineno, text, i, j, path)
            raise DataError(f"expected {num_spans} span lines, found "
                            f"{start + len(chunk)}", path, header_line)
        _parse_rows(rows, chunk, list(islice(spans, len(chunk))), path)
    return sentence_id, scores, vocab


def read_score_file(source: BinaryIO) -> Iterator[tuple[str, SpanScores, LabelVocab]]:
    """Yield ``(sentence_id, scores, vocab)`` for each block of the binary
    file ``source``, reading a block only when the caller asks for it.

    Every block must have the first block's label set; all blocks yield
    the first block's vocabulary.  A line that is not UTF-8 or a malformed
    block raises DataError naming ``source.name`` (when the file has one)
    and the line when it is reached, after the blocks before it were
    yielded; an empty file raises once it is exhausted.
    """
    path = getattr(source, "name", None)
    lines = ((lineno, decode_text(raw, path, lineno))
             for lineno, raw in enumerate(source, start=1))
    vocab: LabelVocab | None = None
    while (block := _read_block(lines, path, vocab)) is not None:
        vocab = block[2]
        yield block
        del block  # not held while the next block is read
    if vocab is None:
        raise DataError("missing header: empty score file", path)
