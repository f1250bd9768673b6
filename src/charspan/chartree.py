"""Word-level trees to binarized character-level trees and back.

The encoding gives each character of a word a node labeled "@1", merges
unary chains into single '+'-joined labels and left-binarizes, labeling the
new intermediate nodes "@2" inside a word and "∅" at phrase level.
``to_char_tree`` does all three in one post-order walk of the word tree.

``from_char_tree`` must stay total on arbitrary binary trees, because
decoder output can place "@1"/"@2"/"∅" anywhere.  It is one post-order walk
of the char tree: each node splits its merged label and leaves pieces in its
parent's child list (bare characters, "@1" runs and recovered subtrees),
with "∅" and "@2" spliced out.  Adjacent "@1" runs make one word and each
bare character a word of its own; a constituent covering exactly one word is
that word's pre-terminal, and every other word gets an "X" pre-terminal.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .labels import (CHAR_LABEL, NULL_LABEL, NULL_TOKEN, SUBWORD_LABEL,
                     UNARY_JOIN, is_word_internal)
from .treebank import (BAD_LEAF_CHARS, SyntaxTree, TreeFormatError, parse_bracketed,
                       read_trees)


class CharTree:
    """A strictly binary tree over the characters of one sentence.

    Leaves carry a single character and a label whose final '+'-segment is
    "@1" in well-formed trees (decoder output may break that).  ``span`` is
    the half-open character interval (i, j) the node covers.
    """

    __slots__ = ("label", "left", "right", "char", "span")

    def __init__(self, label: str, *, char: str | None = None, start: int = 0,
                 left: "CharTree | None" = None, right: "CharTree | None" = None):
        if not label:
            raise ValueError("char-tree node must have a non-empty label")
        if char is not None:
            if left is not None or right is not None:
                raise ValueError("a leaf cannot have children")
            if len(char) != 1 or char in BAD_LEAF_CHARS:
                raise ValueError(f"leaf char must be a single printable character, got {char!r}")
            span = (start, start + 1)
        else:
            if left is None or right is None:
                raise ValueError("internal node needs both children")
            if left.span[1] != right.span[0]:
                raise ValueError(f"child spans {left.span} and {right.span} do not abut")
            span = (left.span[0], right.span[1])
        self.label = label
        self.char = char
        self.left = left
        self.right = right
        self.span = span

    @property
    def is_leaf(self) -> bool:
        return self.char is not None

    def sentence(self) -> str:
        """The characters the tree covers, left to right."""
        if self.char is not None:
            return self.char
        chars = []
        stack = [self]  # pre-order, left subtree first
        while stack:
            ct = stack.pop()
            if ct.char is not None:
                chars.append(ct.char)
            else:
                stack += (ct.right, ct.left)
        return "".join(chars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.label != b.label or a.char != b.char or a.span != b.span:
                return False
            if a.char is None:
                stack += ((a.right, b.right), (a.left, b.left))
        return True

    def __hash__(self) -> int:
        return hash((self.label, self.char, self.span))

    def __repr__(self) -> str:
        return serialize_char_tree(self)


@dataclass
class WordSegmentation:
    """Contiguous word spans over [0, n) in character offsets."""

    spans: list[tuple[int, int]]
    words: list[str]

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "WordSegmentation":
        words = list(words)
        spans = []
        pos = 0
        for w in words:
            spans.append((pos, pos + len(w)))
            pos += len(w)
        return cls(spans, words)


@dataclass
class GoldSpanMap:
    """Span -> label entries read off one character-level tree.

    Spans absent from ``entries`` are implicitly the null label "∅".
    """

    n: int
    entries: dict[tuple[int, int], str]

    def label_of(self, i: int, j: int) -> str:
        return self.entries.get((i, j), NULL_LABEL)


def segmentation_of(word_tree: SyntaxTree) -> WordSegmentation:
    """Gold segmentation: cumulative character offsets of the leaf words."""
    return WordSegmentation.from_words(word_tree.leaves())


# ---------------------------------------------------------------------------
# word-level -> character-level


def _binarized(labels: list[str], kids: list[tuple[CharTree, bool]]) -> tuple[CharTree, bool]:
    """The node of the unary chain ``labels`` over ``kids``, left-binarized,
    and whether all its labels are word-internal ("@1"/"@2" only).  An
    intermediate node is "@2" while all it covers is word-internal, "∅"
    once it covers a finished word."""
    node, internal = kids[0]
    for kid, kid_internal in kids[1:-1]:
        internal = internal and kid_internal
        node = CharTree(SUBWORD_LABEL if internal else NULL_LABEL, left=node, right=kid)
    label = UNARY_JOIN.join(labels)
    last, last_internal = kids[-1]
    return (CharTree(label, left=node, right=last),
            internal and last_internal and is_word_internal(label))


def to_char_tree(word_tree: SyntaxTree) -> CharTree:
    """Encode a word-level tree as a binary character-level tree.

    The fringe of the result is the character sequence of the sentence.
    Raises ValueError when a word leaf is not under a pre-terminal.
    """
    start = 0  # the next character's offset
    # open nodes, outermost first: (the labels of their collapsed unary
    # chain, their children, the (char tree, internal) of the finished ones)
    stack: list[tuple[list[str], tuple, list]] = []
    tree = word_tree
    while True:
        if tree.token is not None:
            raise ValueError(f"word leaf {tree.token!r} has no pre-terminal parent")
        labels = [tree.label]
        while len(tree.children) == 1 and tree.children[0].token is None:
            tree = tree.children[0]
            labels.append(tree.label)
        if not tree.is_preterminal:
            stack.append((labels, tree.children, []))
            tree = tree.children[0]
            continue
        word = tree.children[0].token
        if len(word) == 1:
            label = UNARY_JOIN.join([*labels, CHAR_LABEL])
            done = CharTree(label, char=word, start=start), is_word_internal(label)
        else:
            done = _binarized(labels, [(CharTree(CHAR_LABEL, char=c, start=start + k), True)
                                       for k, c in enumerate(word)])
        start += len(word)
        # hand the finished node to its parent; a parent with all its
        # children done is finished in turn
        while stack:
            labels, children, kids = stack[-1]
            kids.append(done)
            if len(kids) < len(children):
                tree = children[len(kids)]
                break
            stack.pop()
            done = _binarized(labels, kids)
        else:
            return done[0]


def gold_span_labels(char_tree: CharTree) -> GoldSpanMap:
    """One entry per tree node, keyed by its character span."""
    entries: dict[tuple[int, int], str] = {}
    stack = [char_tree]  # pre-order, left subtree first
    while stack:
        ct = stack.pop()
        if ct.span in entries:
            raise RuntimeError(f"duplicate span {ct.span} in char tree")
        entries[ct.span] = ct.label
        if ct.char is None:
            stack += (ct.right, ct.left)
    return GoldSpanMap(char_tree.span[1], entries)


# ---------------------------------------------------------------------------
# character-level -> word-level; a piece is a bare character (str), an "@1"
# run (a list of its texts, one word) or a recovered SyntaxTree

_SPLICED = ("", NULL_LABEL, SUBWORD_LABEL)


@lru_cache(maxsize=1024)
def _kept_segments(label: str) -> tuple[str, ...]:
    """The segments of a merged label that make pieces.  Empty segments
    can only come from labels outside our own encoding; they splice out
    like "∅" and "@2", so recovery stays total."""
    return tuple(s for s in label.split(UNARY_JOIN) if s not in _SPLICED)


def _pieces(char_tree: CharTree) -> list:
    """The pieces ``char_tree`` leaves at the top level, by a post-order
    walk: a node's children leave theirs in its own child list, or in its
    parent's when all its labels splice out."""
    top: list = []
    # (node, its parent's list, its child list, its segments); the
    # segments are None until the node is entered
    stack: list = [(char_tree, top, None, None)]
    while stack:
        ct, out, kids, segs = stack.pop()
        if segs is None:
            segs = _kept_segments(ct.label)
            if ct.char is None:
                kids = [] if segs else out
                if segs:  # made into a piece once its children are done
                    stack.append((ct, out, kids, segs))
                stack.append((ct.right, kids, None, None))
                stack.append((ct.left, kids, None, None))
                continue
            if not segs:
                out.append(ct.char)
                continue
            kids = [ct.char]
        for seg in reversed(segs):
            piece = [ct.sentence()] if seg == CHAR_LABEL else _recover(seg, kids)
            kids = [piece]
        if type(piece) is list and out and type(out[-1]) is list:
            out[-1].extend(piece)  # adjacent "@1" runs make one word
        else:
            out.append(piece)
    return top


def _word(piece) -> SyntaxTree:
    return SyntaxTree(token=piece if isinstance(piece, str) else "".join(piece))


def _as_child(piece) -> SyntaxTree:
    if isinstance(piece, SyntaxTree):
        return piece
    return SyntaxTree("X", [_word(piece)])


def _recover(label: str, pieces: list) -> SyntaxTree:
    if len(pieces) == 1 and not isinstance(pieces[0], SyntaxTree):
        # the node covers exactly one word: it is that word's pre-terminal
        return SyntaxTree(label, [_word(pieces[0])])
    return SyntaxTree(label, [_as_child(p) for p in pieces])


def from_char_tree(char_tree: CharTree) -> tuple[SyntaxTree, WordSegmentation]:
    """Decode a binary character-level tree back to a word-level tree.

    Total on arbitrary input: every character lands in exactly one word and
    the returned segmentation covers [0, n) without gaps or overlaps.
    """
    tops = [_as_child(p) for p in _pieces(char_tree)]
    tree = tops[0] if len(tops) == 1 else SyntaxTree("TOP", tops)
    return tree, WordSegmentation.from_words(tree.leaves())


# ---------------------------------------------------------------------------
# serialization: same bracketed format, "∅" spelled as the token "NULL"


def serialize_char_tree(ct: CharTree) -> str:
    out = []
    stack: list = [ct]  # nodes and the text that closes them, in output order
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        label = NULL_TOKEN if item.label == NULL_LABEL else item.label
        if item.char is not None:
            out.append(f"({label} {item.char})")
        else:
            out.append(f"({label} ")
            stack += (")", item.right, " ", item.left)
    return "".join(out)


def _char_tree_of(tree: SyntaxTree) -> CharTree:
    built: list[CharTree] = []  # finished subtrees, left to right
    start = 0
    stack = [(tree, False)]  # pre-order, left subtree first; True: children built
    while stack:
        node, children_built = stack.pop()
        label = NULL_LABEL if node.label == NULL_TOKEN else node.label
        if children_built:
            right = built.pop()
            built.append(CharTree(label, left=built.pop(), right=right))
        elif node.is_preterminal:
            ch = node.children[0].token
            if len(ch) != 1:
                raise TreeFormatError(f"char-tree leaf {ch!r} is not a single character")
            built.append(CharTree(label, char=ch, start=start))
            start += 1
        elif len(node.children) != 2:
            raise TreeFormatError(
                f"char trees are strictly binary, found {len(node.children)} children "
                f"under {node.label!r}")
        else:
            stack += ((node, True), (node.children[1], False), (node.children[0], False))
    return built[0]


def parse_char_trees(text: str) -> list[CharTree]:
    return parse_bracketed(text, build=_char_tree_of)


def load_char_trees(path: str | os.PathLike) -> list[CharTree]:
    """The char trees of a UTF-8 file; its errors are those of ``read_trees``."""
    return read_trees(path, _char_tree_of)


def save_char_trees(trees: Iterable[CharTree], path: str | os.PathLike) -> None:
    with io.open(path, "w", encoding="utf-8") as f:
        for ct in trees:
            f.write(serialize_char_tree(ct))
            f.write("\n")
