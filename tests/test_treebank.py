"""Bracketed tree reading, writing, and validation."""

import re

import pytest

from charspan.treebank import (SyntaxTree, TreeFormatError,
                               load_corpus, parse_bracketed, save_corpus,
                               serialize_bracketed, strip_function_tags)


def leaf(token):
    return SyntaxTree(token=token)


def test_parse_single_word_tree():
    trees = parse_bracketed("(TOP (NN 中国))")
    assert len(trees) == 1
    t = trees[0]
    assert t.label == "TOP"
    assert len(t.children) == 1
    pre = t.children[0]
    assert pre.label == "NN"
    assert pre.is_preterminal
    assert pre.children[0].token == "中国"


def test_parse_multiple_trees_in_one_text():
    trees = parse_bracketed("(A (B x)) (A (C y))")
    assert [t.label for t in trees] == ["A", "A"]


def test_unlabeled_outer_pair_becomes_top():
    t = parse_bracketed("( (IP (VV 走)))")[0]
    assert t.label == "TOP"
    assert t.children[0].label == "IP"


def test_nested_empty_label_rejected():
    with pytest.raises(TreeFormatError, match="empty label"):
        parse_bracketed("(A ( (B x)))")


def test_leaves_in_order():
    t = parse_bracketed("(IP (NP (NN 山) (NN 水)) (VV 清))")[0]
    assert t.leaves() == ["山", "水", "清"]


def test_serialize_parse_round_trip():
    text = "(TOP (IP (NP (NR 北京)) (VP (VV 欢迎) (NP (PN 你)))))"
    t = parse_bracketed(text)[0]
    assert serialize_bracketed(t) == text
    assert parse_bracketed(serialize_bracketed(t))[0] == t


@pytest.mark.parametrize("bad, message", [
    ("(A (B x)", "unclosed"),
    ("()", "empty node"),
    ("(A x (B y))", "mixes a token"),
    ("(A x y)", "more than one token"),
    ("x", re.escape("expected '('")),
    ("(A (B x)) garbage", re.escape("expected '('")),
])
def test_malformed_input_rejected(bad, message):
    with pytest.raises(TreeFormatError, match=message):
        parse_bracketed(bad)


def test_error_carries_offset():
    try:
        parse_bracketed("(A (B x)")
    except TreeFormatError as e:
        assert e.pos is not None
        assert "offset" in str(e)
    else:
        pytest.fail("expected TreeFormatError")


def test_reserved_labels_rejected_at_load(tmp_path):
    # the error names the file and the line where the tree starts
    for text in ["(∅ (B x))", "(A (@1 x))", "(A (@2 x))", "(A (NULL x))",
                 "(A+B (C x))"]:
        path = tmp_path / "bad.txt"
        path.write_text("(A (B x))\n" + text + "\n", encoding="utf-8")
        with pytest.raises(TreeFormatError, match=f"^{re.escape(str(path))}: line 2: "
                                                  f".*reserved"):
            load_corpus(path)


def test_leaf_validation():
    with pytest.raises(ValueError):
        SyntaxTree(token="a b")
    with pytest.raises(ValueError):
        SyntaxTree(token="a(")
    with pytest.raises(ValueError):
        SyntaxTree(token="")
    with pytest.raises(ValueError):
        SyntaxTree(label="A")  # internal node needs children


def test_function_tag_stripping():
    t = parse_bracketed("(IP-SBJ (NP=1 (NN 狗)))")[0]
    s = strip_function_tags(t)
    assert s.label == "IP"
    assert s.children[0].label == "NP"
    # token text is untouched even if it contains a dash
    u = strip_function_tags(SyntaxTree("X", (leaf("a-b"),)))
    assert u.children[0].token == "a-b"


def test_none_trace_label_survives_stripping():
    t = SyntaxTree("-NONE-", (leaf("x"),))
    assert strip_function_tags(t).label == "-NONE-"


def test_corpus_file_round_trip(tmp_path, small_corpus):
    path = tmp_path / "trees.txt"
    save_corpus(small_corpus, path)
    loaded = load_corpus(path, strip_tags=False)
    assert isinstance(loaded, list)
    assert list(loaded) == list(small_corpus)


def test_load_corpus_strips_tags_by_default(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("(IP-HLN (NN 题))\n", encoding="utf-8")
    assert load_corpus(path)[0].label == "IP"
    assert load_corpus(path, strip_tags=False)[0].label == "IP-HLN"


def test_structural_equality_and_hash():
    a = parse_bracketed("(A (B x) (C y))")[0]
    b = parse_bracketed("(A (B x) (C y))")[0]
    c = parse_bracketed("(A (B x) (C z))")[0]
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_tree_walks_deeper_than_the_recursion_limit():
    # a right-branching tree 1100 levels deep, past Python's default limit
    # of 1000 frames: (IP-X (NN c0) (IP-X (NN c1) ... (NN c1100)))
    def deep(label, tokens):
        return ("".join(f"({label} (NN {c}) " for c in tokens[:-1])
                + f"(NN {tokens[-1]})" + ")" * (len(tokens) - 1))

    tokens = [chr(0x4E00 + k) for k in range(1101)]
    text = deep("IP-X", tokens)
    tree = parse_bracketed(text)[0]
    assert tree.leaves() == tokens
    assert serialize_bracketed(tree) == text
    stripped = strip_function_tags(tree)
    assert serialize_bracketed(stripped) == deep("IP", tokens)
    assert stripped == parse_bracketed(deep("IP", tokens))[0]
    assert hash(stripped) == hash(parse_bracketed(deep("IP", tokens))[0])
    assert stripped != parse_bracketed(deep("IP", tokens[:-1] + ["嗯"]))[0]
    assert stripped != tree


def test_equality_compares_every_node():
    trees = parse_bracketed("(A (B x) (C y)) (A (B x) (C z)) (A (B x) (D y)) "
                            "(A (B x)) (A (B x) (C y) (C y)) (A (B x) (C (E y)))")
    for a in trees:
        for b in trees:
            assert (a == b) == (a is b)
