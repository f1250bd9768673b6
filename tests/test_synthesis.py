"""Seeded synthetic corpora: the length bounds their docstrings state."""

from charspan.synthesis import synthesize_bench_corpus, synthesize_corpus


def _lengths(corpus) -> list[int]:
    return [len("".join(tree.leaves())) for tree in corpus]


def test_sentences_run_at_most_five_characters_past_max_chars():
    # whole words up to the clipped target, then maybe a punctuation mark:
    # a sentence can pass max_chars by a 5-character last word and the mark
    lengths = _lengths(synthesize_bench_corpus(2000, seed=1))
    assert min(lengths) >= 3
    assert 120 < max(lengths) <= 125
    # with long targets the overshoot is common, and still at most 5
    lengths = _lengths(synthesize_corpus(300, seed=1, median_chars=100.0,
                                         max_chars=120))
    assert sum(length > 120 for length in lengths) > 50
    assert max(lengths) == 125
