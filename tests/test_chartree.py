"""Word-level <-> character-level tree transformation."""

import gc
import hashlib
import itertools

import numpy as np
import pytest

from charspan.chartree import (CharTree, from_char_tree, gold_span_labels,
                               load_char_trees, parse_char_trees,
                               save_char_trees, segmentation_of,
                               serialize_char_tree, to_char_tree)
from charspan.labels import CHAR_LABEL, NULL_LABEL, is_char_label
from charspan.synthesis import synthesize_bench_corpus, synthesize_corpus
from charspan.treebank import (SyntaxTree, TreeFormatError, parse_bracketed,
                               serialize_bracketed)


def tree(text):
    return parse_bracketed(text)[0]


def char_leaf(label, ch, start=0):
    return CharTree(label, char=ch, start=start)


def test_single_character_word_merges_whole_chain():
    ct = to_char_tree(tree("(TOP (IP (VV 走)))"))
    assert ct.is_leaf
    assert ct.label == "TOP+IP+VV+@1"
    assert ct.char == "走"
    assert ct.span == (0, 1)


def test_two_character_word():
    ct = to_char_tree(tree("(NN 中国)"))
    assert serialize_char_tree(ct) == "(NN (@1 中) (@1 国))"


def test_left_binarization_of_long_word():
    ct = to_char_tree(tree("(NN 飞机场)"))
    assert serialize_char_tree(ct) == "(NN (@2 (@1 飞) (@1 机)) (@1 场))"
    ct4 = to_char_tree(tree("(NR 内蒙古人)"))
    assert serialize_char_tree(ct4) == \
        "(NR (@2 (@2 (@1 内) (@1 蒙)) (@1 古)) (@1 人))"


def test_phrase_intermediates_get_null_label():
    ct = to_char_tree(tree("(IP (NN 我) (VV 走) (NN 家))"))
    assert serialize_char_tree(ct) == \
        "(IP (NULL (NN+@1 我) (VV+@1 走)) (NN+@1 家))"


def test_unary_chain_merges_above_word():
    ct = to_char_tree(tree("(TOP (IP (NP (NN 中国)) (VP (VV 好))))"))
    assert serialize_char_tree(ct) == \
        "(TOP+IP (NP+NN (@1 中) (@1 国)) (VP+VV+@1 好))"


def test_word_internal_intermediates_stay_subword_only():
    # mixing a finished word with word pieces at phrase level must not
    # produce "@2": the intermediate covers two words
    ct = to_char_tree(tree("(VP (VV 吃) (NN 饭) (SP 了))"))
    assert serialize_char_tree(ct) == \
        "(VP (NULL (VV+@1 吃) (NN+@1 饭)) (SP+@1 了))"


def test_gold_span_labels():
    ct = to_char_tree(tree("(NN 飞机场)"))
    gold = gold_span_labels(ct)
    assert gold.n == 3
    assert gold.entries == {
        (0, 3): "NN",
        (0, 2): "@2",
        (0, 1): "@1",
        (1, 2): "@1",
        (2, 3): "@1",
    }
    assert gold.label_of(1, 3) == NULL_LABEL


def test_gold_span_labels_leaves_no_reference_cycles():
    ct = to_char_tree(tree("(IP (NP (NN 飞机场)) (VP (VV 走)))"))
    gc.collect()
    gc.disable()
    try:
        gold_span_labels(ct)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_segmentation_of():
    seg = segmentation_of(tree("(IP (NN 中国) (VV 发展) (SP 了))"))
    assert seg.words == ["中国", "发展", "了"]
    assert seg.spans == [(0, 2), (2, 4), (4, 5)]


def test_bare_leaf_without_preterminal_rejected():
    bad = SyntaxTree("IP", [SyntaxTree("NN", [SyntaxTree(token="好")]),
                            SyntaxTree(token="吗")])
    with pytest.raises(ValueError, match="pre-terminal"):
        to_char_tree(bad)


def test_round_trip_exact(synthetic_corpus):
    for t in synthetic_corpus:
        ct = to_char_tree(t)
        assert ct.sentence() == "".join(t.leaves())
        back, seg = from_char_tree(ct)
        assert back == t, serialize_bracketed(t)
        assert seg.words == t.leaves()
        assert seg.spans == segmentation_of(t).spans


def test_round_trip_of_a_char_tree_deeper_than_the_recursion_limit():
    # 1200 one-character words under one node binarize into a left spine
    # 1200 nodes deep, past Python's default limit of 1000 frames
    chars = [chr(0x4E00 + k % 500) for k in range(1200)]
    t = tree("(TOP " + " ".join(f"(NN {c})" for c in chars) + ")")
    back, seg = from_char_tree(to_char_tree(t))
    assert back == t
    assert seg.words == chars


def test_char_tree_labels_are_well_formed(synthetic_corpus):
    def walk(ct):
        if ct.is_leaf:
            assert is_char_label(ct.label), ct.label
        else:
            assert not is_char_label(ct.label), ct.label
            walk(ct.left)
            walk(ct.right)

    for t in synthetic_corpus:
        walk(to_char_tree(t))


def test_recovery_simple_cases():
    cases = [
        (CharTree("NN", left=char_leaf("@1", "中"), right=char_leaf("@1", "国", 1)),
         "(NN 中国)"),
        (char_leaf("TOP+IP+VV+@1", "走"), "(TOP (IP (VV 走)))"),
        (CharTree("IP", left=char_leaf("@1", "a"), right=char_leaf("@1", "b", 1)),
         "(IP ab)"),
    ]
    for ct, expected in cases:
        back, _ = from_char_tree(ct)
        assert serialize_bracketed(back) == expected


def test_recovery_splices_null_at_root():
    ct = CharTree(NULL_LABEL, left=char_leaf("NN+@1", "我"),
                  right=char_leaf("VV+@1", "走", 1))
    back, seg = from_char_tree(ct)
    assert serialize_bracketed(back) == "(TOP (NN 我) (VV 走))"
    assert seg.words == ["我", "走"]


def test_recovery_inserts_x_for_stray_word():
    inner = CharTree("NN", left=char_leaf("@1", "a"), right=char_leaf("@1", "b", 1))
    ct = CharTree("IP", left=inner, right=char_leaf("@1", "c", 2))
    back, seg = from_char_tree(ct)
    assert serialize_bracketed(back) == "(IP (NN ab) (X c))"
    assert seg.words == ["ab", "c"]


def _all_binary_shapes(i, j):
    if j - i == 1:
        yield ("leaf", i)
        return
    for k in range(i + 1, j):
        for l in _all_binary_shapes(i, k):
            for r in _all_binary_shapes(k, j):
                yield ("node", l, r)


def _build_labeled(shape, labels, counter, chars):
    label = labels[next(counter)]
    if shape[0] == "leaf":
        return CharTree(label, char=chars[shape[1]], start=shape[1])
    left = _build_labeled(shape[1], labels, counter, chars)
    right = _build_labeled(shape[2], labels, counter, chars)
    return CharTree(label, left=left, right=right)


@pytest.mark.parametrize("n", [2, 3])
def test_recovery_total_on_exhaustive_small_trees(n):
    # every labeling of every shape, including ill-formed ones such as "@1"
    # on a length-2 span or "NN" on a single character
    alphabet = [NULL_LABEL, CHAR_LABEL, "NN"]
    chars = "abcd"[:n]
    nodes = 2 * n - 1
    checked = 0
    for shape in _all_binary_shapes(0, n):
        for labels in itertools.product(alphabet, repeat=nodes):
            counter = iter(range(nodes))
            ct = _build_labeled(shape, list(labels), counter, chars)
            back, seg = from_char_tree(ct)
            assert "".join(back.leaves()) == chars
            assert seg.spans[0][0] == 0 and seg.spans[-1][1] == n
            for (a, b), (c, d) in zip(seg.spans, seg.spans[1:]):
                assert b == c
            # the recovered tree must survive the word-level file format
            assert parse_bracketed(serialize_bracketed(back))[0] == back
            checked += 1
    assert checked == {2: 27, 3: 2 * 3 ** 5}[n]


def test_recovery_total_on_random_trees():
    rng = np.random.default_rng(99)
    alphabet = [NULL_LABEL, CHAR_LABEL, "@2", "NN", "NN+@1", "TOP+IP",
                "IP+@2", "@2+@1", "A+B+C"]

    def random_tree(i, j):
        label = alphabet[rng.integers(len(alphabet))]
        if j - i == 1:
            return CharTree(label, char=chr(ord("一") + i), start=i)
        k = int(rng.integers(i + 1, j))
        return CharTree(label, left=random_tree(i, k), right=random_tree(k, j))

    for _ in range(300):
        n = int(rng.integers(1, 12))
        ct = random_tree(0, n)
        back, seg = from_char_tree(ct)
        assert "".join(back.leaves()) == ct.sentence()
        assert "".join(seg.words) == ct.sentence()


# sha256 digests of the encoding's outputs; any change to either direction
# of the encoding, edge cases included, changes one of them
PINNED_RECOVERY = "20894d24c61a43f5dd57b628f5087ac93c5931586a83953dae86d9bb63f13d75"
PINNED_ENCODING = "12f26b72a977e8c3986c04ffbe38e685c66f8ff15a5f8a32a626866c26d51417"


def test_encoding_outputs_are_pinned():
    rng = np.random.default_rng(2022)
    alphabet = [NULL_LABEL, CHAR_LABEL, "@2", "NN", "NN+@1", "A+B+C", "+",
                "VP+", "++@1", "@1+NN", NULL_LABEL + "+@1", "@1+@1",
                "NP+" + NULL_LABEL, "@2+@2"]

    def random_tree(i, j):
        label = alphabet[rng.integers(len(alphabet))]
        if j - i == 1:
            return CharTree(label, char=chr(ord("一") + i), start=i)
        k = int(rng.integers(i + 1, j))
        return CharTree(label, left=random_tree(i, k), right=random_tree(k, j))

    recovered = []
    recovery = hashlib.sha256()
    for n in range(1, 14):
        for _ in range(150):
            back, seg = from_char_tree(random_tree(0, n))
            recovered.append(back)
            recovery.update(f"{serialize_bracketed(back)}\t{' '.join(seg.words)}\n"
                            .encode())
    # recovered trees are word trees of shapes the synthetic corpora never
    # make, such as "X" pre-terminals and words beside phrases
    encoding = hashlib.sha256()
    for t in [*synthesize_corpus(500, seed=42), *synthesize_bench_corpus(),
              *recovered]:
        encoding.update(f"{serialize_char_tree(to_char_tree(t))}\n".encode())
    assert (recovery.hexdigest(), encoding.hexdigest()) == \
        (PINNED_RECOVERY, PINNED_ENCODING)


def test_serialization_maps_null_label_to_null_token():
    ct = to_char_tree(tree("(IP (NN 我) (VV 走) (NN 家))"))
    text = serialize_char_tree(ct)
    assert "NULL" in text and NULL_LABEL not in text
    parsed = parse_char_trees(text)[0]
    assert parsed == ct
    assert parsed.left.label == NULL_LABEL


def test_char_tree_file_round_trip(tmp_path, small_corpus):
    cts = [to_char_tree(t) for t in small_corpus]
    path = tmp_path / "char.txt"
    save_char_trees(cts, path)
    assert load_char_trees(path) == cts


def test_char_tree_parse_rejects_nonbinary():
    with pytest.raises(TreeFormatError, match="strictly binary"):
        parse_char_trees("(IP (@1 a) (@1 b) (@1 c))")


def test_char_tree_parse_rejects_multichar_leaf():
    with pytest.raises(TreeFormatError, match="single character"):
        parse_char_trees("(IP (@1 ab) (@1 c))")


def test_char_tree_constructor_validation():
    with pytest.raises(ValueError, match="abut"):
        CharTree("A", left=char_leaf("@1", "a", 0), right=char_leaf("@1", "b", 2))
    with pytest.raises(ValueError, match="single printable"):
        CharTree("A", char="ab")
    with pytest.raises(ValueError):
        CharTree("A")  # internal node with no children


def test_char_tree_equality_compares_every_node():
    text = "(IP (NP (NN+@1 中) (@1 国)) (VP (VV+@1 好) (NULL (@1 的) (@1 人))))"
    [ct] = parse_char_trees(text)
    assert ct == parse_char_trees(text)[0]
    assert ct != 1 and ct.__eq__("x") is NotImplemented
    # one change anywhere, on either side and at any depth, breaks equality
    for changed in ("(IP (NP (NN+@1 中) (@1 国)) (VP (VV+@1 好) (NULL (@1 的) (@2 人))))",
                    "(IP (NP (NN+@1 中) (@1 国)) (VP (VV+@1 好) (NULL (@1 的) (@1 们))))",
                    "(IP (NP (NN+@1 中) (@2 国)) (VP (VV+@1 好) (NULL (@1 的) (@1 人))))",
                    "(IP (NP (NN+@1 中) (@1 国)) (NULL (VV+@1 好) (NULL (@1 的) (@1 人))))",
                    "(IP (NP (NN+@1 中) (@1 国)) (VP (NULL (VV+@1 好) (@1 的)) (@1 人)))",
                    "(TOP (NP (NN+@1 中) (@1 国)) (VP (VV+@1 好) (NULL (@1 的) (@1 人))))"):
        [other] = parse_char_trees(changed)
        assert ct != other and other != ct
