"""Seeded benchmark inputs, generated once per seed and cached on disk.

Every input is a pure function of (workload, seed): the same arguments
give the same bytes.  Nothing here is timed.  The program under
test only ever sees the files written here.

Sentence lengths follow a fixed quantile profile instead of random draws,
so that every seed does the same amount of work with different content:
the k-th of N sentences has the length of the (k + 0.5)/N quantile of the
newswire lognormal (median 27 characters, sigma 0.55, clipped to
[3, 120]).  Each sentence is a ``synthesize_corpus`` tree re-drawn until
it has exactly that length.  Label-set sizes are pinned the same way:
score workloads pad the gold labels up to L = 439 with labels of the
reference bench corpus, and training corpora are re-drawn until they have
exactly ``TRAIN_LABELS`` labels, since epoch time and memory scale with L.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from statistics import NormalDist

import numpy as np

CACHE_ROOT = ".perfbench"
# Bump when the generator changes, so stale caches are never reused.
VERSION = 5

NEWSWIRE = dict(median=27.0, sigma=0.55)      # synthesize_bench_corpus shape
TRAIN_SHAPE = dict(median=16.0, sigma=0.5)    # synthesize_corpus default shape
MIN_CHARS, MAX_CHARS = 3, 120

SCORE_LABELS = 439       # L of synthesize_bench_corpus(348, seed=7)
REFERENCE_SEED = 7
TRAIN_LABELS = 165       # the most common L of a 60-sentence training corpus
TRAIN_SENTENCES, DEV_SENTENCES = 60, 20
DECODE_SENTENCES = 120   # distinct sentences; decode-library repeats passes
EPSILON = 1e-3           # score noise; gold stays the unique optimum
# The parse-checkpoint model is trained once per checkout, from this seed:
# training it per seed would add 12 s to every run.
MODEL_SEED = 0

# Input sentences of one command of the parse workloads; run.py repeats
# the command for --seconds and reports the median.
PARSE_CHECKPOINT_SENTENCES = 80
PARSE_SCOREFILE_SENTENCES = 8

# Tags keep the random streams of different inputs apart.
_TAG_SENTENCE, _TAG_TRAIN, _TAG_DEV, _TAG_MODEL, _TAG_NOISE = 1, 2, 3, 4, 5


def length_profile(count: int, median: float, sigma: float) -> list[int]:
    """Sentence lengths at the mid-quantiles of a clipped lognormal."""
    normal = NormalDist()
    return [min(MAX_CHARS, max(MIN_CHARS, round(math.exp(
        math.log(median) + sigma * normal.inv_cdf((k + 0.5) / count)))))
        for k in range(count)]


def tree_of_length(n: int, key: list[int]):
    """A synthetic tree whose yield has exactly ``n`` characters."""
    from charspan import synthesize_corpus
    for attempt in range(100_000):
        tree = synthesize_corpus(1, seed=[*key, attempt], median_chars=float(n),
                                 sigma=0.0, min_chars=MIN_CHARS,
                                 max_chars=MAX_CHARS)[0]
        if len("".join(tree.leaves())) == n:
            return tree
    raise RuntimeError(f"no tree of length {n} for key {key}")


def profile_corpus(lengths: list[int], key: list[int]) -> list:
    return [tree_of_length(n, [*key, k]) for k, n in enumerate(lengths)]


def label_count(trees) -> int:
    from charspan import build_vocab, to_char_tree
    return len(build_vocab(to_char_tree(t) for t in trees))


def _preterminals(tree) -> list:
    if tree.is_preterminal:
        return [tree]
    return [p for child in tree.children for p in _preterminals(child)]


def flat_tree(tree):
    """The tree's words and POS tags directly under TOP.

    Such a tree has no constituent that parse F1 scores, so dev F1 is 0.0
    after every epoch and ``train`` copies its best parameters exactly once,
    after epoch 1.  With structured dev trees the copy (1.4 GB at the
    default feature dimension) lands in whichever epochs happen to improve
    dev F1, and tree-loss epoch times jump between about 0.55 and 1.3 s
    from seed to seed.
    """
    from charspan import SyntaxTree
    return SyntaxTree("TOP", _preterminals(tree))


def training_corpus(seed: int, tag: int) -> tuple[list, list]:
    """60 train and 20 flat dev sentences, median 16 characters, with
    exactly ``TRAIN_LABELS`` labels in the training part."""
    train_lengths = length_profile(TRAIN_SENTENCES, **TRAIN_SHAPE)
    dev_lengths = length_profile(DEV_SENTENCES, **TRAIN_SHAPE)
    for attempt in range(10_000):
        train = profile_corpus(train_lengths, [seed, tag, attempt])
        if label_count(train) == TRAIN_LABELS:
            dev = profile_corpus(dev_lengths, [seed, tag, attempt, _TAG_DEV])
            return train, [flat_tree(t) for t in dev]
    raise RuntimeError(f"no training corpus with {TRAIN_LABELS} labels")


def score_labels(trees) -> list[str]:
    """The gold labels of ``trees`` padded to ``SCORE_LABELS`` labels with
    labels of the reference bench corpus, in first-appearance order."""
    from charspan import build_vocab, synthesize_bench_corpus, to_char_tree
    labels = build_vocab(to_char_tree(t) for t in trees).labels
    if len(labels) > SCORE_LABELS:
        raise RuntimeError(f"gold corpus has {len(labels)} labels, "
                           f"more than {SCORE_LABELS}")
    seen = set(labels)
    reference = synthesize_bench_corpus(348, seed=REFERENCE_SEED)
    for label in build_vocab(to_char_tree(t) for t in reference).labels:
        if len(labels) == SCORE_LABELS:
            break
        if label not in seen:
            seen.add(label)
            labels.append(label)
    if len(labels) != SCORE_LABELS:
        raise RuntimeError(f"could not pad the label set to {SCORE_LABELS}")
    return labels


def noisy_oracle(gold_map, vocab, seed: int, index: int):
    """SpanScores with 1.0 on every gold (span, label) plus uniform noise in
    [0, EPSILON) everywhere.  The gold tree is the unique best tree as long
    as EPSILON < 1 / (4 n - 2)."""
    from charspan import oracle_scores
    scores = oracle_scores(gold_map, vocab)
    rng = np.random.default_rng([seed, _TAG_NOISE, index])
    scores.values += rng.random(scores.values.shape) * EPSILON
    return scores


def epsilon_bound(n_max: int) -> float:
    return 1.0 / (4 * n_max - 2)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _save_trees(path: str, trees) -> None:
    from charspan import save_corpus
    save_corpus(trees, path)


def _sentences(trees) -> list[str]:
    return ["".join(t.leaves()) for t in trees]


def _median_index(trees) -> int:
    """Index of a sentence of median length, used for the set-up runs."""
    lengths = [len(s) for s in _sentences(trees)]
    return lengths.index(sorted(lengths)[len(lengths) // 2])


def _prepare_parse_checkpoint(out: str, seed: int) -> dict:
    trees = profile_corpus(length_profile(PARSE_CHECKPOINT_SENTENCES, **NEWSWIRE),
                           [seed, _TAG_SENTENCE])
    sentences = _sentences(trees)
    _write_lines(os.path.join(out, "sentences.txt"), sentences)
    _write_lines(os.path.join(out, "sentence1.txt"), [sentences[_median_index(trees)]])
    return {"sentences": len(sentences)}


def _prepare_model(out: str, seed: int) -> dict:
    """Corpora of the parse-checkpoint model; run.py trains model.npz from
    them in a child process."""
    train, dev = training_corpus(seed, _TAG_MODEL)
    _save_trees(os.path.join(out, "train.txt"), train)
    _save_trees(os.path.join(out, "dev.txt"), dev)
    return {"sentences": len(train)}


def _prepare_gold(out: str, seed: int, count: int) -> dict:
    trees = profile_corpus(length_profile(count, **NEWSWIRE), [seed, _TAG_SENTENCE])
    sentences = _sentences(trees)
    k = _median_index(trees)
    _save_trees(os.path.join(out, "gold.txt"), trees)
    _save_trees(os.path.join(out, "gold1.txt"), [trees[k]])
    _write_lines(os.path.join(out, "sentences.txt"), sentences)
    _write_lines(os.path.join(out, "sentence1.txt"), [sentences[k]])
    with open(os.path.join(out, "labels.json"), "w", encoding="utf-8") as f:
        json.dump(score_labels(trees), f, ensure_ascii=False)
    return {"sentences": len(sentences), "setup_index": k}


def _prepare_train(out: str, seed: int) -> dict:
    train, dev = training_corpus(seed, _TAG_TRAIN)
    _save_trees(os.path.join(out, "train.txt"), train)
    _save_trees(os.path.join(out, "dev.txt"), dev)
    return {"sentences": len(train)}


PREPARERS = {
    "model": _prepare_model,
    "parse-checkpoint": _prepare_parse_checkpoint,
    "parse-scorefile": lambda out, seed: _prepare_gold(
        out, seed, PARSE_SCOREFILE_SENTENCES),
    "decode-library": lambda out, seed: _prepare_gold(out, seed, DECODE_SENTENCES),
    "train": _prepare_train,
}


def input_dir(workload: str, seed: int) -> str:
    return os.path.join(CACHE_ROOT, "inputs", f"v{VERSION}-{workload}-seed{seed}")


def prepare(workload: str, seed: int) -> tuple[str, dict]:
    """Directory of the cached inputs for this run, generating them first
    when missing.  A ``manifest.json`` is written last, so a directory
    without one is an interrupted generation and is rebuilt."""
    out = input_dir(workload, seed)
    manifest_path = os.path.join(out, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as f:
            return out, json.load(f)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    manifest = PREPARERS[workload](out, seed)
    manifest["files"] = {name: file_sha256(os.path.join(out, name))
                         for name in sorted(os.listdir(out))}
    with open(manifest_path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(manifest_path + ".tmp", manifest_path)
    return out, manifest


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
