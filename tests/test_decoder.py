"""CKY decoding: correctness against a brute-force oracle, tie rules,
and masks."""

import gc
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charspan.chartree import (gold_span_labels, parse_char_trees,
                               serialize_char_tree, to_char_tree)
from charspan import scoring
from charspan.decoder import (DecodeConfig, PLACEHOLDER_CHAR, apply_masks,
                              available_backends, brute_force_decode,
                              cky_decode, decode_sentence, fill_chart, tree_score,
                              _enumerate_trees, _masked_copy, _span_argmax)
from charspan.labels import NULL_LABEL, is_char_label
from charspan.scorers import LinearScorer, MLPHead
from charspan.scoring import (LabelVocab, SpanScores, build_vocab,
                              iter_spans, oracle_scores, score_spans,
                              span_representation, span_row)
from charspan.treebank import parse_bracketed
from memcheck import traced_peak

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
        assert tree_score(scores, VOCAB, tree) == total


def test_tree_score_of_a_deep_tree_needs_no_recursion():
    # a flat tree of 1200 one-character words binarizes 1200 levels deep
    words = " ".join(f"(NN {chr(0x4E00 + k)})" for k in range(1200))
    ct = to_char_tree(parse_bracketed(f"(IP {words})")[0])
    vocab = build_vocab([ct])
    scores = oracle_scores(gold_span_labels(ct), vocab)
    assert tree_score(scores, vocab, ct) == 2399.0  # one per node


def test_backtrace_of_a_deep_tree_needs_no_recursion():
    # the same 1200-level tree, decoded from its oracle scores, then
    # compared, read back and serialized
    chars = "".join(chr(0x4E00 + k) for k in range(1200))
    words = " ".join(f"(NN {c})" for c in chars)
    ct = to_char_tree(parse_bracketed(f"(IP {words})")[0])
    vocab = build_vocab([ct])
    assert len(vocab) <= 5
    gold = gold_span_labels(ct)
    decoded, total = cky_decode(oracle_scores(gold, vocab), vocab, chars=chars)
    assert total == 2399.0
    assert gold_span_labels(decoded).entries == gold.entries
    assert decoded == ct
    assert decoded.sentence() == chars
    text = serialize_char_tree(decoded)
    assert text.startswith("(IP (NULL (NULL ") and text.endswith(f" (NN+@1 {chars[-1]}))")
    assert parse_char_trees(text) == [ct]


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
    # the masked-off labels score highest, so only the masks keep them out
    scores = SpanScores(3, len(VOCAB))
    char_ids = [VOCAB.index["@1"], VOCAB.index["NN+@1"]]
    other_ids = [VOCAB.index[NULL_LABEL], VOCAB.index["NN"], VOCAB.index["@2"]]
    width1 = [span_row(3, i, i + 1) for i in range(3)]
    wider = [span_row(3, 0, 2), span_row(3, 1, 3)]
    scores.values[np.ix_(width1, other_ids)] = 5.0
    scores.values[np.ix_(wider, char_ids)] = 5.0
    before = scores.values.copy()
    labels, best = apply_masks(scores, VOCAB, DecodeConfig())
    assert (labels[width1] == VOCAB.index["@1"]).all()
    assert (labels[wider] == VOCAB.index[NULL_LABEL]).all()
    assert (best[width1 + wider] == 0.0).all()
    relaxed, _ = apply_masks(scores, VOCAB, DecodeConfig(constrain_char_labels=False))
    assert (relaxed[width1] == VOCAB.index[NULL_LABEL]).all()
    assert (relaxed[wider] == VOCAB.index["@1"]).all()
    # originals are untouched
    assert np.array_equal(scores.values, before)


def test_null_is_masked_on_width_one_spans():
    # with constrain_char_labels a length-1 span takes only "@1"-final
    # labels, so "∅" is masked there even though it scores highest
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    scores = SpanScores(2, len(vocab))
    width1 = [span_row(2, 0, 1), span_row(2, 1, 2)]
    scores.values[width1] = [9.0, 1.0, 0.0]
    labels, best = apply_masks(scores, vocab, DecodeConfig())
    assert (labels[width1] == vocab.index["@1"]).all() and (best[width1] == 1.0).all()
    assert (_masked_copy(scores, vocab, DecodeConfig()).values[width1, 0] == -np.inf).all()
    tree, _ = cky_decode(scores, vocab)
    assert tree.left.label == tree.right.label == "@1"
    relaxed, _ = apply_masks(scores, vocab, DecodeConfig(constrain_char_labels=False))
    assert (relaxed[width1] == vocab.index[NULL_LABEL]).all()


def test_mask_nonnull_root():
    scores = SpanScores(3, len(VOCAB))
    root, inner = span_row(3, 0, 3), span_row(3, 1, 3)
    scores.values[[root, inner], VOCAB.index[NULL_LABEL]] = 5.0
    before = scores.values.copy()
    labels, best = apply_masks(scores, VOCAB, DecodeConfig())
    assert labels[root] == VOCAB.index["NN"] and best[root] == 0.0
    assert labels[inner] == VOCAB.index[NULL_LABEL] and best[inner] == 5.0
    relaxed, relaxed_best = apply_masks(scores, VOCAB,
                                        DecodeConfig(require_nonnull_root=False))
    assert relaxed[root] == VOCAB.index[NULL_LABEL] and relaxed_best[root] == 5.0
    assert np.array_equal(scores.values, before)


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


def test_cky_decode_leaves_no_reference_cycles():
    # a cycle would hold the chart arrays until the cyclic collector runs,
    # so peak memory would depend on when it happens to run
    rng = np.random.default_rng(3)
    gc.collect()
    gc.disable()
    try:
        for n in (1, 2, 9):
            cky_decode(random_scores(rng, n), VOCAB)
            cky_decode(random_scores(rng, n), VOCAB, chars="abcdefghi"[:n])
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    vocab = LabelVocab([NULL_LABEL, "@1", "NN"])
    scores = SpanScores(n, len(vocab), values[np.triu_indices(n + 1, k=1)])
    labels, best = apply_masks(scores, vocab, DecodeConfig())
    total, split = fill_chart(best, n)
    assert labels.shape == best.shape == (n * (n + 1) // 2,)
    assert isinstance(total, float)
    assert split.shape == (n, n + 1)  # by start, then width
    ints = list(range(1, n))
    assert split[0, n] in ints
    assert total == cky_decode(scores, vocab)[1]


MASK_VOCABS = [VOCAB, LabelVocab([NULL_LABEL, "NN", "@2"]),
               LabelVocab([NULL_LABEL, "@1"])]
MASK_CONFIGS = [DecodeConfig(c, r) for c in (True, False) for r in (True, False)]
ROW_ELEMENTS = [
    st.floats(-1.0, 1.0),                              # random
    st.sampled_from([-1.0, 0.0, 1.0]),                 # forced ties
    st.sampled_from([-1.0, 0.0, 1.0, -np.inf, -np.inf]),  # -inf entries
]


@st.composite
def masked_argmax_cases(draw):
    vocab = draw(st.sampled_from(MASK_VOCABS))
    n = draw(st.integers(1, 7))
    rows = [draw(st.lists(draw(st.sampled_from(ROW_ELEMENTS)),
                          min_size=len(vocab), max_size=len(vocab)))
            for _ in range(n * (n + 1) // 2)]
    scores = SpanScores(n, len(vocab), np.array(rows), validate=False)
    return scores, vocab, draw(st.sampled_from(MASK_CONFIGS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masked_argmax_cases())
def test_apply_masks_is_a_first_maximum_scan_of_the_masked_copy(case):
    scores, vocab, config = case
    before = scores.values.copy()
    try:
        masked = _masked_copy(scores, vocab, config)
    except ValueError as e:
        with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
            apply_masks(scores, vocab, config)
        return
    labels, best = apply_masks(scores, vocab, config)
    want_label, want_best = _span_argmax(masked.values, scores.n, scores.num_labels)
    spans = list(iter_spans(scores.n))
    assert labels.tolist() == [want_label[s] for s in spans]
    assert best.tobytes() == np.array([want_best[s] for s in spans]).tobytes()
    assert scores.values.tobytes() == before.tobytes()


def test_masked_argmax_and_split_dp_do_not_copy_the_scores(synthetic_corpus):
    cts = [to_char_tree(t) for t in list(synthetic_corpus)[:40]]
    vocab = build_vocab(cts)
    ct = max(cts, key=lambda c: c.span[1])
    scores = oracle_scores(gold_span_labels(ct), vocab)
    config = DecodeConfig()
    fill_chart(apply_masks(scores, vocab, config)[1], scores.n)  # warm caches
    _, peak = traced_peak(lambda: fill_chart(apply_masks(scores, vocab, config)[1],
                                             scores.n))
    assert peak < scores.values.nbytes, (peak, scores.values.shape)


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


# --- decode_sentence: a scorer's sentence decoded one chunk at a time ----

SENTENCE_VOCAB = LabelVocab([NULL_LABEL, "@1", "NN+@1", "NN", "@2", "VP", "IP+NP",
                             *(f"X{k}" for k in range(5))])
CONFIGS = [DecodeConfig(chars, root) for chars in (True, False) for root in (True, False)]
# _CHUNK_VALUES as it is, one start block per chunk, and one chunk per
# sentence (which decode_sentence hands to score_spans and cky_decode)
CHUNKINGS = {"default": None, "one block": 1, "one chunk": 1 << 62}


def sentence_scorers(num_labels: int, dim: int = 1 << 9) -> dict:
    """A linear scorer with colliding ids and -0.0 weights, an MLP, and an
    MLP whose every score is 0.0 (relu leaves no hidden unit on), so every
    label and every split ties."""
    rng = np.random.default_rng(23)
    rows = rng.normal(size=(dim // 2, num_labels))
    rows[rng.random(rows.shape) < 0.2] = -0.0
    zero = {"W1": rng.normal(size=(dim, 8)), "b1": np.full(8, -100.0),
            "W2": rng.normal(size=(8, num_labels)), "b2": np.zeros(num_labels)}
    return {"linear": LinearScorer(dim, num_labels, keys=np.arange(0, dim, 2), rows=rows),
            "mlp": MLPHead(dim, num_labels, hidden=16, dropout=0.0,
                           rng=np.random.default_rng(num_labels)),
            "mlp-ties": MLPHead(dim, num_labels, hidden=8, dropout=0.0, params=zero)}


def set_chunking(monkeypatch, chunking: str) -> None:
    if CHUNKINGS[chunking] is not None:
        monkeypatch.setattr(scoring, "_CHUNK_VALUES", CHUNKINGS[chunking])


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_decode_sentence_equals_scoring_then_decoding(monkeypatch, chunking):
    # trees and totals bit for bit, sign of zero included, on every mask
    # configuration and however the sentence is cut into chunks
    set_chunking(monkeypatch, chunking)
    rng = np.random.default_rng(29)
    scorers = sentence_scorers(len(SENTENCE_VOCAB))
    for n in [*range(1, 41), 300]:
        chars = "".join(rng.choice(list("好中国人的了")) for _ in range(n))
        for name, scorer in scorers.items():
            scores = score_spans(scorer, chars, SENTENCE_VOCAB)
            for config in CONFIGS:
                want, want_total = cky_decode(scores, SENTENCE_VOCAB, config, chars=chars)
                got, total = decode_sentence(scorer, chars, SENTENCE_VOCAB, config)
                assert got == want, (n, name, config)
                assert float.hex(total) == float.hex(want_total), (n, name, config)


@pytest.mark.parametrize("chunk_values", [1, 100, 1 << 16, 1 << 62])
def test_decode_sentence_scores_whole_start_blocks_into_one_buffer(monkeypatch,
                                                                    chunk_values):
    monkeypatch.setattr(scoring, "_CHUNK_VALUES", chunk_values)
    num_labels = len(SENTENCE_VOCAB)
    cap = max(1, chunk_values // num_labels)
    scorer = sentence_scorers(num_labels)["linear"]
    start_blocks = scorer.start_blocks
    calls = []

    def recording(rep):
        blocks = start_blocks(rep)

        def record(p0, p1, out):
            calls.append((p0, p1, out))
            return blocks(p0, p1, out)

        return record

    monkeypatch.setattr(scorer, "start_blocks", recording)
    for n in (1, 2, 7, 300):
        calls.clear()
        decode_sentence(scorer, "好中国人的了"[:3] * n, SENTENCE_VOCAB)
        # the chunks tile the starts in order, all in one buffer of at most
        # _CHUNK_VALUES values, or of the first start block if that is bigger
        assert [p0 for p0, _, _ in calls] == [0, *(p1 for _, p1, _ in calls[:-1])]
        assert calls[-1][1] == 3 * n
        buffer = calls[0][2]
        assert all(out is buffer for _, _, out in calls)
        assert buffer.size <= max(chunk_values, 3 * n * num_labels)
        for p0, p1, _ in calls:
            size = span_row(3 * n, p1, p1 + 1) - span_row(3 * n, p0, p0 + 1)
            # one block, or whole blocks that fit; and the next would not
            assert p1 == p0 + 1 or size <= cap
            assert p1 == 3 * n or size + 3 * n - p1 > cap
        if chunk_values == 1:
            assert len(calls) == 3 * n
        if chunk_values == 1 << 62:
            assert len(calls) == 1


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_decode_sentence_names_the_first_nonfinite_span(monkeypatch, chunking):
    # two bad width-1 spans late in a 300-character sentence: the message
    # names the first in row order, as scoring the whole sentence does
    set_chunking(monkeypatch, chunking)
    chars = "".join(np.random.default_rng(3).choice(list("中国人的了"), 300))
    chars = chars[:250] + "好" + chars[251:280] + "坏" + chars[281:]
    dim = 1 << 20
    # the ids of the "S:好" and "S:坏" features, which only those spans have
    rep = span_representation(chars, dim)
    keys = sorted(int(rep.ids_of(np.array([span_row(300, p, p + 1)]))[0, 6])
                  for p in (250, 280))
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.zeros((2, len(SENTENCE_VOCAB)))
        rows[:, 3] = bad
        scorer = LinearScorer(dim, len(SENTENCE_VOCAB), keys=keys, rows=rows)
        with pytest.raises(ValueError) as want:
            score_spans(scorer, chars, SENTENCE_VOCAB)
        assert str(want.value) == "scorer produced non-finite values at span (250, 251)"
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            decode_sentence(scorer, chars, SENTENCE_VOCAB)


@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_decode_sentence_reports_a_nonfinite_score_before_a_masked_span(monkeypatch,
                                                                       chunking):
    # a vocabulary with no "@1"-final label leaves every length-1 span with
    # no usable label; a non-finite score anywhere is still reported first
    set_chunking(monkeypatch, chunking)
    vocab = LabelVocab([NULL_LABEL, "NN", "VP"])
    chars = "中国人的了" * 60
    dim = 1 << 20
    rep = span_representation(chars, dim)
    # W:1, which every width-1 span has
    key = int(rep.ids_of(np.array([span_row(300, 299, 300)]))[0, 7])
    scorer = LinearScorer(dim, len(vocab), keys=[key], rows=[[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match=r"^masking left span \(0, 1\) with no usable label$"):
        decode_sentence(scorer, chars, vocab)
    with pytest.raises(ValueError, match=r"^masking left span \(0, 1\)"):
        cky_decode(score_spans(scorer, chars, vocab), vocab)
    late = chars[:290] + "好" + chars[291:]
    rep = span_representation(late, dim)
    key = int(rep.ids_of(np.array([span_row(300, 290, 291)]))[0, 6])  # S:好
    scorer = LinearScorer(dim, len(vocab), keys=[key], rows=[[0.0, np.inf, 0.0]])
    message = r"^scorer produced non-finite values at span \(290, 291\)$"
    with pytest.raises(ValueError, match=message):
        score_spans(scorer, late, vocab)
    with pytest.raises(ValueError, match=message):
        decode_sentence(scorer, late, vocab)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_decode_sentence_holds_no_sentence_sized_score_array(kind):
    # 600 characters at L = 165: the (S, L) scores would take 238 MB
    n, num_labels = 600, 165
    vocab = LabelVocab([NULL_LABEL, "@1", "@2", *(f"X{k}" for k in range(num_labels - 3))])
    rng = np.random.default_rng(7)
    chars = "".join(chr(0x4E00 + int(k)) for k in rng.integers(0, 400, n))
    if kind == "linear":
        dim = 1 << 20
        rep = span_representation(chars, dim)
        keys = np.unique(np.concatenate([table.ravel() for table in rep]))
        keys = keys[keys >= 0]
        scorer = LinearScorer(dim, num_labels, keys=keys,
                              rows=rng.normal(size=(len(keys), num_labels)))
    else:
        scorer = MLPHead(1 << 12, num_labels, hidden=16, dropout=0.0, rng=rng)
    decode_sentence(scorer, chars[:30], vocab)  # warm caches
    (tree, _), peak = traced_peak(lambda: decode_sentence(scorer, chars, vocab))
    assert tree.span == (0, n)
    score_bytes = n * (n + 1) // 2 * num_labels * 8
    assert peak < score_bytes / 4, (peak, score_bytes)
