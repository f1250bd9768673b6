"""Reading and writing PTB/CTB-style bracketed parse trees.

Trees are s-expressions over UTF-8 text: ``(IP (NP (NN 中国)) (VP (VV 发展)))``.
A node body holds either exactly one token (making the node a pre-terminal)
or one or more subtrees, never a mixture.  An unlabeled outer pair
``( ... )``, as written by CTB, is normalized to a root labeled "TOP".

Files carry one tree per line on write; reading accepts trees split across
lines.  A "character" anywhere in this package means one Unicode scalar
value, never a byte.
"""

from __future__ import annotations

import io
import os
import re
from typing import Iterable, Sequence

from .labels import RESERVED_LABELS, UNARY_JOIN

# the characters no token can hold: space, tab, CR and LF separate tokens
# and brackets delimit nodes; every other character, U+3000 included, can
BAD_LEAF_CHARS = frozenset(" \t\r\n()")
# a token: a bracket, or a run of the characters a token can hold
_TOKEN = re.compile("[()]|[^%s]+" % re.escape("".join(sorted(BAD_LEAF_CHARS))))


class DataError(ValueError):
    """Input that cannot be read as its kind, in the file ``path`` and at the
    1-based ``line`` (either None if unknown): prints as ``PATH: line K: message``."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.message, self.path, self.line = message, path, line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")


class TreeFormatError(DataError):
    """Malformed bracketed-tree text.  ``pos`` is a 0-based character offset
    into the parsed string when the error is tied to a location."""

    def __init__(self, message: str, pos: int | None = None, path=None, line=None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message, path, line)
        self.pos = pos


def decode_text(data: bytes, path, line: int = 1) -> str:
    """``data``, read from ``path``, as UTF-8 text.  A byte that is not UTF-8
    raises DataError naming its line, counted on from ``line``, and its place."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = data.rfind(b"\n", 0, e.start) + 1  # the bad line's first byte
        e.object, e.start, e.end = data[start:e.end], e.start - start, e.end - start
        raise DataError(str(e), path, line + data.count(b"\n", 0, start)) from None


class SyntaxTree:
    """A word-level parse tree node.

    Internal nodes carry a non-empty ``label`` and at least one child.
    Leaves carry a ``token`` (one word), no children, and an empty label;
    construct them with ``SyntaxTree(token="word")``.  Instances are treated
    as immutable; all operations build new trees.
    """

    __slots__ = ("label", "children", "token")

    def __init__(self, label: str = "", children: Sequence["SyntaxTree"] = (),
                 token: str | None = None):
        children = tuple(children)
        if token is not None:
            if children:
                raise ValueError("a leaf cannot have children")
            if not token:
                raise ValueError("leaf token must be non-empty")
            if not BAD_LEAF_CHARS.isdisjoint(token):
                raise ValueError(f"leaf token {token!r} contains whitespace or brackets")
        else:
            if not label:
                raise ValueError("internal node must have a non-empty label")
            if not children:
                raise ValueError("internal node must have at least one child")
        self.label = label
        self.children = children
        self.token = token

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @property
    def is_preterminal(self) -> bool:
        """True for a node whose single child is a leaf, e.g. ``(NN 中国)``."""
        return len(self.children) == 1 and self.children[0].token is not None

    def leaves(self) -> list[str]:
        """Left-to-right leaf tokens (the fringe)."""
        if self.token is not None:
            return [self.token]
        out: list[str] = []
        stack = [iter(self.children)]  # the unvisited children of each open node
        while stack:
            for node in stack[-1]:
                if node.token is not None:
                    out.append(node.token)
                else:
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SyntaxTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.label != b.label or a.token != b.token
                    or len(a.children) != len(b.children)):
                return False
            stack += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        # children before parents, without recursion: a node's hash takes
        # its label, its token and its children's hashes
        order = [self]
        for node in order:  # breadth first: a node before its children
            order += node.children
        hashes: dict[int, int] = {}
        for node in reversed(order):
            hashes[id(node)] = hash((node.label, node.token,
                                     tuple(hashes[id(c)] for c in node.children)))
        return hashes[id(self)]

    def __repr__(self) -> str:
        if self.token is not None:
            return self.token
        return serialize_bracketed(self)


def parse_bracketed(text: str, build=None) -> list:
    """The list of the zero or more bracketed trees in ``text``, each passed
    through ``build`` when it is given.

    Raises TreeFormatError for unbalanced brackets, empty labels on nested
    nodes, empty nodes, and nodes mixing tokens with subtrees, and with the
    offset of its tree for one from ``build``; the offset points into ``text``.
    """
    trees: list = []
    # the open nodes, outermost first, as [offset, label, children, token];
    # the label is None until the token after the '(' is read.  Depth is
    # not bounded by recursion.
    stack: list[list] = []
    for m in _TOKEN.finditer(text):
        tok, i = m.group(), m.start()
        if not stack:
            if tok != "(":
                raise TreeFormatError(f"expected '(', found {tok[0]!r}", i)
            stack.append([i, None, [], None])
            continue
        node = stack[-1]
        if node[1] is None:
            if tok == ")":
                raise TreeFormatError("empty node", node[0])
            if tok != "(":
                node[1] = tok
                continue
            # an unlabeled wrapper is only legal around a whole tree
            if len(stack) > 1:
                raise TreeFormatError("internal node with empty label", node[0])
            node[1] = "TOP"
        if tok == "(":
            if node[3] is not None:
                raise TreeFormatError("node mixes a token with subtrees", i)
            stack.append([i, None, [], None])
        elif tok == ")":
            start, label, children, token = stack.pop()
            if token is not None:
                tree = SyntaxTree(label, [SyntaxTree(token=token)])
            elif not children:
                raise TreeFormatError("node has no token and no subtrees", start)
            else:
                tree = SyntaxTree(label, children)
            if stack:
                stack[-1][2].append(tree)
                continue
            try:
                trees.append(build(tree) if build else tree)
            except TreeFormatError as e:  # the tree parses but is not of its kind
                raise TreeFormatError(e.message, start) from None
        elif node[3] is not None:
            raise TreeFormatError("more than one token in a node", i)
        elif node[2]:
            raise TreeFormatError("node mixes a token with subtrees", i)
        else:
            node[3] = tok
    if stack:
        raise TreeFormatError("unclosed '('", stack[-1][0])
    return trees


def serialize_bracketed(tree: SyntaxTree) -> str:
    """Single-line bracketed form; inverse of parse_bracketed per tree."""
    if tree.token is not None:
        return tree.token
    out = []
    stack: list = [tree]  # nodes and the text between them, in output order
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif item.token is not None:
            out.append(item.token)
        else:
            out.append(f"({item.label} ")
            children = item.children
            stack += (")", children[-1])
            for child in reversed(children[:-1]):
                stack += (" ", child)
    return "".join(out)


def _strip_label(label: str) -> str:
    # Truncate at the first '-' or '='; trace labels like "-NONE-" start
    # with '-' and carry no function suffix, so they survive whole.
    if label[:1] in ("-", "="):
        return label
    for k, ch in enumerate(label):
        if ch in "-=":
            return label[:k]
    return label


def strip_function_tags(tree: SyntaxTree) -> SyntaxTree:
    """Drop CTB function suffixes: "NP-SBJ" -> "NP", "NP=1" -> "NP".

    Leaves are untouched and the structure is unchanged.
    """
    if tree.token is not None:
        return tree
    # each open node with its unvisited children and its finished ones
    stack = [(tree, iter(tree.children), [])]
    while True:
        node, rest, kids = stack[-1]
        for child in rest:
            if child.token is not None:
                kids.append(child)
            else:
                stack.append((child, iter(child.children), []))
                break
        else:
            stack.pop()
            node = SyntaxTree(_strip_label(node.label), kids)
            if not stack:
                return node
            stack[-1][2].append(node)


def _reject_reserved(tree: SyntaxTree) -> SyntaxTree:
    stack = [tree]  # pre-order, leftmost child first
    while stack:
        node = stack.pop()
        if node.token is not None:
            continue
        if node.label in RESERVED_LABELS:
            raise TreeFormatError(f"label {node.label!r} is reserved by the "
                                  f"character-level encoding")
        if UNARY_JOIN in node.label:
            raise TreeFormatError(f"label {node.label!r} contains {UNARY_JOIN!r}, "
                                  f"which is reserved for merged unary chains")
        stack += reversed(node.children)
    return tree


def read_trees(path: str | os.PathLike, build) -> list:
    """The trees of the UTF-8 file ``path``, each passed through ``build``.
    Bytes that are not UTF-8 raise DataError, and text that is not such
    trees TreeFormatError, both naming the file and the line."""
    with io.open(path, "rb") as f:
        text = decode_text(f.read(), path)
    try:
        return parse_bracketed(text, build)
    except TreeFormatError as e:
        raise TreeFormatError(e.message, path=path,
                              line=text.count("\n", 0, e.pos) + 1) from None


def load_corpus(path: str | os.PathLike, strip_tags: bool = True) -> list[SyntaxTree]:
    """Read a UTF-8 treebank file, as ``read_trees`` does.

    With ``strip_tags`` (the default) function suffixes are removed at load.
    Trees using labels reserved by the character-level encoding ("@1", "@2",
    "NULL", the null label) or containing '+' are rejected.
    """
    if strip_tags:
        return read_trees(path, lambda tree: _reject_reserved(strip_function_tags(tree)))
    return read_trees(path, _reject_reserved)


def save_corpus(corpus: Iterable[SyntaxTree], path: str | os.PathLike) -> None:
    """Write trees one per line, UTF-8."""
    with io.open(path, "w", encoding="utf-8") as f:
        for tree in corpus:
            f.write(serialize_bracketed(tree))
            f.write("\n")
