"""CKY decoding: correctness against a brute-force oracle, tie rules,
and masks."""

import hashlib

import numpy as np
import pytest

from charspan.chartree import (gold_span_labels, serialize_char_tree,
                               to_char_tree)
from charspan.decoder import (DecodeConfig, PLACEHOLDER_CHAR, apply_masks,
                              available_backends, brute_force_decode,
                              cky_decode, fill_chart, tree_score,
                              _enumerate_trees)
from charspan.labels import NULL_LABEL, is_char_label
from charspan.scoring import (LabelVocab, SpanScores, build_vocab,
                              iter_spans, oracle_scores, span_row)

VOCAB = LabelVocab([NULL_LABEL, "@1", "NN+@1", "NN", "@2"])


def random_scores(rng, n, num_labels=len(VOCAB)):
    values = rng.uniform(-1.0, 1.0, (n + 1, n + 1, num_labels))
    return SpanScores(n, num_labels, values[np.triu_indices(n + 1, k=1)],
                      validate=False)


def tied_scores(rng, n):
    # scores in {-1, 0, 1}: labels and splits tie on most spans, and sums
    # of them are exact
    values = rng.integers(-1, 2, (n + 1, n + 1, len(VOCAB))).astype(float)
    return SpanScores(n, len(VOCAB), values[np.triu_indices(n + 1, k=1)],
                      validate=False)


def test_python_backend_always_available():
    assert "python" in available_backends()


def test_oracle_scores_reconstruct_gold(small_corpus):
    cts = [to_char_tree(t) for t in small_corpus]
    vocab = build_vocab(cts)
    for ct in cts:
        scores = oracle_scores(gold_span_labels(ct), vocab)
        decoded, total = cky_decode(scores, vocab, chars=ct.sentence())
        assert decoded == ct
        # one point per tree node
        assert total == pytest.approx(2 * ct.span[1] - 1)


def test_decoded_trees_are_well_formed():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 15))
        tree, _ = cky_decode(random_scores(rng, n), VOCAB)

        def walk(ct):
            if ct.is_leaf:
                assert is_char_label(ct.label)
            else:
                assert not is_char_label(ct.label)
                walk(ct.left)
                walk(ct.right)

        walk(tree)
        assert tree.label != NULL_LABEL  # root constraint
        assert tree.span == (0, n)


def test_cky_matches_brute_force():
    rng = np.random.default_rng(12)
    for case in range(400):
        n = int(rng.integers(1, 9))
        tied = case >= 200
        scores = tied_scores(rng, n) if tied else random_scores(rng, n)
        ct_c, v_c = cky_decode(scores, VOCAB)
        ct_b, v_b = brute_force_decode(scores, VOCAB)
        if tied:
            assert v_c == v_b, case
        else:
            assert abs(v_c - v_b) < 1e-9, case
        assert ct_c == ct_b, case


def test_total_equals_tree_score_recomputation():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 61))
        scores = random_scores(rng, n)
        tree, total = cky_decode(scores, VOCAB)
        masked = apply_masks(scores, VOCAB, DecodeConfig())
        assert tree_score(masked, VOCAB, tree) == total


def test_label_tie_breaks_to_smallest_id():
    # all-zero scores: every usable label ties, every split ties
    scores = SpanScores(2, len(VOCAB))
    tree, total = cky_decode(scores, VOCAB)
    assert tree.left.label == "@1"  # not "NN+@1", which ties at id 2
    assert tree.right.label == "@1"
    assert tree.label == "NN"  # ids 0..2 are masked on the root span
    assert total == 0.0


def test_split_tie_breaks_to_smallest_k():
    scores = SpanScores(4, len(VOCAB))
    tree, _ = cky_decode(scores, VOCAB)
    # leftmost split everywhere, so the chain hangs off to the right
    assert tree.left.span == (0, 1)
    assert tree.right.span == (1, 4)
    assert tree.right.left.span == (1, 2)
    assert tree.right.right.left.span == (2, 3)


def test_mask_constrain_char_labels():
    scores = SpanScores(3, len(VOCAB))
    masked = apply_masks(scores, VOCAB, DecodeConfig())
    char_ids = [VOCAB.index["@1"], VOCAB.index["NN+@1"]]
    other_ids = [VOCAB.index[NULL_LABEL], VOCAB.index["NN"], VOCAB.index["@2"]]
    for i in range(3):
        row = masked.values[span_row(3, i, i + 1)]
        assert np.isfinite(row[char_ids]).all()
        assert np.isneginf(row[other_ids]).all()
    assert np.isneginf(masked.values[span_row(3, 0, 2), char_ids]).all()
    assert np.isfinite(masked.values[span_row(3, 0, 2), VOCAB.index[NULL_LABEL]])
    # originals are untouched
    assert np.isfinite(scores.values).all()


def test_mask_nonnull_root():
    scores = SpanScores(3, len(VOCAB))
    masked = apply_masks(scores, VOCAB, DecodeConfig())
    assert np.isneginf(masked.values[span_row(3, 0, 3), VOCAB.index[NULL_LABEL]])
    assert np.isfinite(masked.values[span_row(3, 1, 3), VOCAB.index[NULL_LABEL]])
    relaxed = apply_masks(scores, VOCAB,
                          DecodeConfig(require_nonnull_root=False))
    assert np.isfinite(relaxed.values[span_row(3, 0, 3), VOCAB.index[NULL_LABEL]])


def test_masks_can_be_disabled():
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    scores = SpanScores(2, len(vocab))
    scores.values[span_row(2, 0, 1), vocab.index["NN"]] = 5.0
    scores.values[span_row(2, 1, 2), vocab.index["NN"]] = 5.0
    scores.values[span_row(2, 0, 2), vocab.index[NULL_LABEL]] = 5.0
    config = DecodeConfig(constrain_char_labels=False, require_nonnull_root=False)
    tree, total = cky_decode(scores, vocab, config)
    assert tree.label == NULL_LABEL
    assert tree.left.label == "NN"
    assert total == 15.0


def test_mask_error_when_no_usable_label():
    vocab = LabelVocab([NULL_LABEL, "NN"])  # no char-final label at all
    scores = SpanScores(2, len(vocab))
    with pytest.raises(ValueError, match="no usable label"):
        apply_masks(scores, vocab, DecodeConfig())


def test_single_character_sentence():
    vocab = LabelVocab([NULL_LABEL, "@1", "VV+@1"])
    scores = SpanScores(1, len(vocab))
    scores.values[span_row(1, 0, 1), vocab.index["VV+@1"]] = 2.0
    tree, total = cky_decode(scores, vocab, chars="走")
    assert tree.is_leaf and tree.label == "VV+@1" and tree.char == "走"
    assert total == 2.0


def test_placeholder_char_without_sentence():
    tree, _ = cky_decode(SpanScores(2, len(VOCAB)), VOCAB)
    assert tree.left.char == PLACEHOLDER_CHAR


def test_chars_length_mismatch_rejected():
    scores = SpanScores(3, len(VOCAB))
    with pytest.raises(ValueError, match="characters"):
        cky_decode(scores, VOCAB, chars="ab")
    with pytest.raises(ValueError, match="characters"):
        brute_force_decode(scores, VOCAB, chars="ab")


def test_brute_force_size_limit():
    scores = SpanScores(13, len(VOCAB))
    with pytest.raises(ValueError, match="limited"):
        brute_force_decode(scores, VOCAB)


def test_enumeration_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(1, 7):
        labscore = {(i, j): 0.0 for i, j in iter_spans(n)}
        assert len(_enumerate_trees(labscore, 0, n, {})) == catalan[n - 1]


def test_fill_chart_shapes():
    rng = np.random.default_rng(2)
    n = 5
    values = rng.normal(size=(n + 1, n + 1, 3))
    bc, bestlab, split = fill_chart(values[np.triu_indices(n + 1, k=1)], n)
    assert bc.shape == (n + 1, n + 1)
    assert bestlab.shape == (n + 1, n + 1)
    assert split.shape == (n + 1, n + 1)
    ints = list(range(1, n))
    assert split[0, n] in ints


def test_gold_tree_is_argmax_of_its_own_oracle(synthetic_corpus):
    # spot check on a slice: margins of 1.0 separate gold from every rival
    cts = [to_char_tree(t) for t in list(synthetic_corpus)[:40]]
    vocab = build_vocab(cts)
    for ct in cts:
        scores = oracle_scores(gold_span_labels(ct), vocab)
        decoded, _ = cky_decode(scores, vocab, chars=ct.sentence())
        assert decoded == ct


def chart_of(rows, n, num_labels=len(VOCAB)):
    # rows: one score row per span, in iter_spans order
    return SpanScores(n, num_labels, rows, validate=False)


PINNED_DECODES = {
    "uniform": "7a1f100ae062bb715c7b07076a9ad2cb2f8eba36e13dc3bc3c53451935c3c00f",
    "tied": "c7f6b7015909e5d57b74a8c656b739c6fc0b53e43728ea600548abdcf65ee1aa",
    "zero": "dc50adb86803036312936e8a8fca5d3c8aa5d3ba67a6a0867c68f16bda462791",
}


@pytest.mark.parametrize("kind", sorted(PINNED_DECODES))
def test_decoded_output_is_pinned(kind):
    # every decoded char tree and float.hex(total) for n = 1..60, hashed;
    # pins trees, totals and both tie rules against any change of the chart
    rng = np.random.default_rng(["uniform", "tied", "zero"].index(kind) + 71)
    digest = hashlib.sha256()
    for n in range(1, 61):
        shape = (n * (n + 1) // 2, len(VOCAB))
        if kind == "uniform":
            rows = rng.uniform(-1.0, 1.0, shape)
        elif kind == "tied":
            rows = rng.integers(-1, 2, shape).astype(float)
        else:
            rows = np.zeros(shape)
        tree, total = cky_decode(chart_of(rows, n), VOCAB)
        digest.update(f"{serialize_char_tree(tree)} {float.hex(total)}\n".encode())
    assert digest.hexdigest() == PINNED_DECODES[kind]
