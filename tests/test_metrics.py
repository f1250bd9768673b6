"""Segmentation F1 and character-span labeled-bracket F1."""

import gc

import pytest

from charspan.chartree import WordSegmentation
from charspan.metrics import (constituents, joint_report, parse_f1, seg_f1)
from charspan.treebank import parse_bracketed


def tree(text):
    return parse_bracketed(text)[0]


def seg(*words):
    return WordSegmentation.from_words(words)


def test_seg_f1_exact_match():
    g = [seg("中国", "发展", "了")]
    r = seg_f1(g, g)
    assert r.f1 == 1.0 and r.matched == 3


def test_seg_f1_partial():
    gold = [seg("中国", "人")]  # spans (0,2) (2,3)
    pred = [seg("中", "国人")]  # spans (0,1) (1,3)
    r = seg_f1(gold, pred)
    assert r.matched == 0
    assert r.f1 == 0.0
    pred2 = [seg("中国", "人")]
    mixed = seg_f1(gold + gold, [pred[0], pred2[0]])
    assert mixed.matched == 2
    assert mixed.precision == pytest.approx(0.5)


def test_seg_f1_validation():
    with pytest.raises(ValueError, match="sentences"):
        seg_f1([seg("ab")], [])
    with pytest.raises(ValueError, match="covers"):
        seg_f1([seg("ab")], [seg("abc")])


def test_constituents_exclude_root_and_preterminals():
    t = tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")
    assert constituents(t) == {
        ("IP", 0, 4): 1,
        ("NP", 0, 2): 1,
        ("VP", 2, 4): 1,
    }


def test_constituents_offsets_are_characters_not_words():
    t = tree("(IP (NP (NN 飞机场)) (VV 大))")
    # NP covers three characters even though it is one word
    assert ("NP", 0, 3) in constituents(t)


def test_constituents_count_unary_duplicates():
    t = tree("(TOP (NP (NP (NN 中国))))")
    c = constituents(t)
    assert c[("NP", 0, 2)] == 2


def test_constituents_leaves_no_reference_cycles():
    t = tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")
    gc.collect()
    gc.disable()
    try:
        constituents(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_single_word_sentence_has_no_scorable_brackets():
    t = tree("(NN 好)")
    assert constituents(t) == {}
    r = parse_f1([t], [t])
    assert r.f1 == 0.0 and r.gold_count == 0


def test_parse_f1_hand_case():
    gold = [tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")]
    pred = [tree("(TOP (IP (NN 中) (VP (NN 国) (VV 发展))))")]
    r = parse_f1(gold, pred)
    # matched: IP(0,4); pred also has VP(1,4); gold has NP(0,2), VP(2,4)
    assert r.matched == 1
    assert r.precision == pytest.approx(1 / 2)
    assert r.recall == pytest.approx(1 / 3)
    assert r.f1 == pytest.approx(0.4)


def test_parse_f1_swap_swaps_precision_and_recall():
    gold = [tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")]
    pred = [tree("(TOP (IP (NN 中) (VP (NN 国) (VV 发展))))")]
    a = parse_f1(gold, pred)
    b = parse_f1(pred, gold)
    assert a.precision == b.recall and a.recall == b.precision
    assert a.f1 == b.f1


def test_parse_f1_yield_mismatch_rejected():
    gold = [tree("(IP (NN 中国))")]
    pred = [tree("(IP (NN 中))")]
    with pytest.raises(ValueError, match="yield mismatch"):
        parse_f1(gold, pred)


def test_parse_f1_identical_corpus(small_corpus):
    trees = list(small_corpus)
    r = parse_f1(trees, trees)
    assert r.f1 == 1.0
    assert r.matched == r.gold_count == r.pred_count


def test_segmentation_errors_propagate_to_parse_metric():
    # same phrase structure, shifted word boundary: the NP extent moves
    gold = [tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")]
    pred = [tree("(TOP (IP (NP (NN 中)) (VP (VV 国发展))))")]
    r = parse_f1(gold, pred)
    assert ("NP", 0, 1) in constituents(pred[0])
    assert r.matched == 1  # only IP(0,4) survives


def test_joint_report_format(small_corpus):
    trees = list(small_corpus)
    report = joint_report(trees, trees)
    lines = report.splitlines()
    assert lines[0].split() == ["metric", "P", "R", "F1", "match", "gold", "pred"]
    assert lines[1].startswith("seg ")
    assert lines[2].startswith("parse ")
    assert "seg_f1=1.0 par_f1=1.0" in lines[-1]


def test_joint_report_rounding():
    gold = [tree("(TOP (IP (NP (NN 中国)) (VP (VV 发展))))")]
    pred = [tree("(TOP (IP (NN 中) (VP (NN 国) (VV 发展))))")]
    report = joint_report(gold, pred)
    assert "par_f1=0.4 " in report
    assert report.splitlines()[-1].endswith("par_r=0.333333")
