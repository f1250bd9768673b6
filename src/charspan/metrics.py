"""Segmentation F1 and labeled-bracket parse F1, EVALB-style.

Constituent spans are measured in character offsets, not word offsets, so
the two metrics stay comparable when the predicted segmentation is wrong:
a constituent only matches if its label and its character extent both
match.  Convention pinned here: the root node and POS pre-terminals are
excluded from bracket scoring; punctuation is not deleted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .chartree import WordSegmentation, segmentation_of
from .treebank import SyntaxTree


@dataclass
class PRF:
    precision: float
    recall: float
    f1: float
    matched: int
    gold_count: int
    pred_count: int


def _prf(matched: int, gold_count: int, pred_count: int) -> PRF:
    p = matched / pred_count if pred_count else 0.0
    r = matched / gold_count if gold_count else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return PRF(p, r, f1, matched, gold_count, pred_count)


def seg_f1(gold: Sequence[WordSegmentation],
           pred: Sequence[WordSegmentation]) -> PRF:
    """Micro-averaged exact-span word F1."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold vs {len(pred)} predicted sentences")
    matched = gold_count = pred_count = 0
    for k, (g, p) in enumerate(zip(gold, pred)):
        if g.spans[-1][1] != p.spans[-1][1]:
            raise ValueError(f"sentence {k}: gold covers {g.spans[-1][1]} "
                             f"characters, prediction covers {p.spans[-1][1]}")
        gs = set(g.spans)
        ps = set(p.spans)
        matched += len(gs & ps)
        gold_count += len(gs)
        pred_count += len(ps)
    return _prf(matched, gold_count, pred_count)


def constituents(tree: SyntaxTree) -> Counter:
    """Multiset of (label, char_start, char_end) for scoring: internal
    nodes except the root and except pre-terminals."""
    out: Counter = Counter()
    pos = 0  # characters before the next leaf
    # each open node with its start and its unvisited children, so depth
    # is not bounded by recursion; a node counts once its children are done
    stack = [(tree, 0, iter(tree.children))]
    while stack:
        node, start, children = stack[-1]
        for child in children:
            if child.token is not None:
                pos += len(child.token)
            else:
                stack.append((child, pos, iter(child.children)))
                break
        else:
            stack.pop()
            if stack and not node.is_preterminal:  # the root has no parent
                out[(node.label, start, pos)] += 1
    return out


def parse_f1(gold_trees: Sequence[SyntaxTree],
             pred_trees: Sequence[SyntaxTree]) -> PRF:
    """Micro-averaged labeled-bracket F1 over character spans."""
    if len(gold_trees) != len(pred_trees):
        raise ValueError(f"{len(gold_trees)} gold vs {len(pred_trees)} predicted trees")
    matched = gold_count = pred_count = 0
    for k, (g, p) in enumerate(zip(gold_trees, pred_trees)):
        gy = "".join(g.leaves())
        py = "".join(p.leaves())
        if gy != py:
            raise ValueError(f"sentence {k}: character yield mismatch")
        gc = constituents(g)
        pc = constituents(p)
        matched += sum((gc & pc).values())
        gold_count += sum(gc.values())
        pred_count += sum(pc.values())
    return _prf(matched, gold_count, pred_count)


def _fmt(v: float) -> str:
    return str(round(float(v), 6))


def joint_report(gold_trees: Sequence[SyntaxTree],
                 pred_trees: Sequence[SyntaxTree]) -> str:
    """Both metrics as a small table plus one machine-readable line."""
    seg = seg_f1([segmentation_of(t) for t in gold_trees],
                 [segmentation_of(t) for t in pred_trees])
    par = parse_f1(gold_trees, pred_trees)
    lines = [
        f"{'metric':<8} {'P':>9} {'R':>9} {'F1':>9} {'match':>7} {'gold':>7} {'pred':>7}",
        f"{'seg':<8} {seg.precision:>9.4f} {seg.recall:>9.4f} {seg.f1:>9.4f} "
        f"{seg.matched:>7} {seg.gold_count:>7} {seg.pred_count:>7}",
        f"{'parse':<8} {par.precision:>9.4f} {par.recall:>9.4f} {par.f1:>9.4f} "
        f"{par.matched:>7} {par.gold_count:>7} {par.pred_count:>7}",
        f"seg_f1={_fmt(seg.f1)} par_f1={_fmt(par.f1)} "
        f"seg_p={_fmt(seg.precision)} seg_r={_fmt(seg.recall)} "
        f"par_p={_fmt(par.precision)} par_r={_fmt(par.recall)}",
    ]
    return "\n".join(lines)
