"""Seeded synthetic CTB-style corpora.

Fixtures and benchmarks need treebanks this repository may not ship, so
trees are generated instead: words of 1-5 characters weighted toward the
short end, fan-out at most 5, phrase-level unary chains at most 3 deep,
and an optional sentence-final punctuation word.  Sentence lengths in
characters follow a clipped lognormal; the bench preset targets a median
around 27 characters, the shape of newswire treebank sentences.
"""

from __future__ import annotations

import numpy as np

from .treebank import SyntaxTree

POS_TAGS = ["NN", "VV", "NR", "AD", "JJ", "PN", "CD", "M", "P", "DEG", "VA", "LC"]
PHRASE_LABELS = ["IP", "NP", "VP", "ADJP", "ADVP", "PP", "QP", "DNP", "LCP", "CP"]
WORD_LENGTH_WEIGHTS = [0.42, 0.38, 0.12, 0.05, 0.03]  # lengths 1..5
MAX_FANOUT = 5
# 400 distinct hanzi starting at U+4E00
CHAR_POOL = [chr(0x4E00 + k) for k in range(400)]
SENTENCE_FINAL = ["。", "！", "？"]


def _pick(rng: np.random.Generator, items: list[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _random_word(rng: np.random.Generator) -> str:
    length = 1 + int(rng.choice(len(WORD_LENGTH_WEIGHTS), p=WORD_LENGTH_WEIGHTS))
    return "".join(_pick(rng, CHAR_POOL) for _ in range(length))


def _build(words: list[tuple[str, str]], lo: int, hi: int, chain: int,
           rng: np.random.Generator) -> SyntaxTree:
    if hi - lo == 1:
        pos, word = words[lo]
        node = SyntaxTree(pos, [SyntaxTree(token=word)])
        if chain < 2 and rng.random() < 0.2:
            node = SyntaxTree(_pick(rng, PHRASE_LABELS), [node])
        return node
    if chain < 2 and rng.random() < 0.08:
        return SyntaxTree(_pick(rng, PHRASE_LABELS),
                          [_build(words, lo, hi, chain + 1, rng)])
    fanout = int(rng.integers(2, min(MAX_FANOUT, hi - lo) + 1))
    cuts = sorted(int(c) for c in rng.choice(np.arange(lo + 1, hi),
                                             size=fanout - 1, replace=False))
    bounds = [lo, *cuts, hi]
    children = [_build(words, bounds[t], bounds[t + 1], 0, rng)
                for t in range(fanout)]
    return SyntaxTree(_pick(rng, PHRASE_LABELS), children)


def _generate_tree(rng: np.random.Generator, target_chars: int) -> SyntaxTree:
    words: list[tuple[str, str]] = []
    total = 0
    while total < target_chars:
        word = _random_word(rng)
        words.append((_pick(rng, POS_TAGS), word))
        total += len(word)
    if rng.random() < 0.5:
        words.append(("PU", _pick(rng, SENTENCE_FINAL)))
    # "TOP" over the clause counts as one unary link already
    return SyntaxTree("TOP", [_build(words, 0, len(words), 1, rng)])


def synthesize_corpus(num_sentences: int, seed: int = 0,
                      median_chars: float = 16.0, sigma: float = 0.5,
                      min_chars: int = 3, max_chars: int = 120) -> list[SyntaxTree]:
    """A seeded corpus of ``num_sentences`` random CTB-style trees.

    Each sentence draws a target length, clipped to [min_chars,
    max_chars], and takes whole words until it has at least that many
    characters.  Its last word (up to 5 characters) and an optional
    punctuation mark can take it past the target, up to max_chars + 5.
    """
    if num_sentences < 1:
        raise ValueError("need at least one sentence")
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(num_sentences):
        target = int(np.clip(round(rng.lognormal(np.log(median_chars), sigma)),
                             min_chars, max_chars))
        trees.append(_generate_tree(rng, target))
    return trees


def synthesize_bench_corpus(num_sentences: int = 348,
                            seed: int = 7) -> list[SyntaxTree]:
    """Newswire-shaped lengths: lognormal, median ~27 chars.  Targets are
    clipped to [3, 120], so sentences have 3 to 125 characters (see
    ``synthesize_corpus``)."""
    return synthesize_corpus(num_sentences, seed, median_chars=27.0,
                             sigma=0.55, min_chars=3, max_chars=120)
