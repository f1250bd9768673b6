"""Self-tests of the benchmark's input generator and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import charspan
import prepare


def _generate(root, monkeypatch, workload: str, seed: int) -> dict:
    monkeypatch.setattr(prepare, "CACHE_ROOT", str(root))
    _, manifest = prepare.prepare(workload, seed)
    return manifest


@pytest.mark.parametrize("workload", ["parse-checkpoint", "parse-scorefile", "train"])
def test_same_seed_same_bytes(tmp_path, monkeypatch, workload):
    first = _generate(tmp_path / "a", monkeypatch, workload, 5)
    second = _generate(tmp_path / "b", monkeypatch, workload, 5)
    assert first["files"] == second["files"]
    other = _generate(tmp_path / "c", monkeypatch, workload, 6)
    assert other["files"] != first["files"]


def test_cached_inputs_are_reused(tmp_path, monkeypatch):
    first = _generate(tmp_path, monkeypatch, "parse-scorefile", 5)
    out = prepare.input_dir("parse-scorefile", 5)
    stamp = os.path.getmtime(os.path.join(out, "gold.txt"))
    assert _generate(tmp_path, monkeypatch, "parse-scorefile", 5) == first
    assert os.path.getmtime(os.path.join(out, "gold.txt")) == stamp


def test_noisy_scores_are_seeded(tmp_path, monkeypatch):
    _generate(tmp_path, monkeypatch, "parse-scorefile", 5)
    out = prepare.input_dir("parse-scorefile", 5)
    tree = charspan.load_corpus(os.path.join(out, "gold.txt"))[0]
    with open(os.path.join(out, "labels.json"), encoding="utf-8") as f:
        vocab = charspan.LabelVocab(json.load(f))
    gold = charspan.gold_span_labels(charspan.to_char_tree(tree))
    a = prepare.noisy_oracle(gold, vocab, 5, 0).values
    assert np.array_equal(a, prepare.noisy_oracle(gold, vocab, 5, 0).values)
    assert not np.array_equal(a, prepare.noisy_oracle(gold, vocab, 6, 0).values)
    noise = a - prepare.noisy_oracle(gold, vocab, 5, 0).values.round()
    assert noise.min() >= 0.0 and noise.max() < prepare.EPSILON


def test_epsilon_below_the_uniqueness_bound():
    # the generator never makes a sentence longer than MAX_CHARS
    assert prepare.EPSILON < prepare.epsilon_bound(prepare.MAX_CHARS)
    for count in (prepare.PARSE_SCOREFILE_SENTENCES, prepare.DECODE_SENTENCES):
        n_max = max(prepare.length_profile(count, **prepare.NEWSWIRE))
        assert n_max <= prepare.MAX_CHARS
        assert prepare.EPSILON < prepare.epsilon_bound(n_max)


def test_gold_is_the_decoded_tree(tmp_path, monkeypatch):
    _generate(tmp_path, monkeypatch, "decode-library", 5)
    out = prepare.input_dir("decode-library", 5)
    trees = charspan.load_corpus(os.path.join(out, "gold.txt"))
    with open(os.path.join(out, "labels.json"), encoding="utf-8") as f:
        vocab = charspan.LabelVocab(json.load(f))
    assert len(vocab) == prepare.SCORE_LABELS
    lengths = [len("".join(t.leaves())) for t in trees]
    assert lengths == prepare.length_profile(prepare.DECODE_SENTENCES,
                                             **prepare.NEWSWIRE)
    for k in (0, len(trees) // 2):
        gold_ct = charspan.to_char_tree(trees[k])
        scores = prepare.noisy_oracle(charspan.gold_span_labels(gold_ct), vocab, 5, k)
        ct, total = charspan.cky_decode(scores, vocab, chars="".join(trees[k].leaves()))
        assert ct == gold_ct
        assert total == charspan.tree_score(scores, vocab, gold_ct)


def test_training_corpus_shape():
    train, dev = prepare.training_corpus(5, 2)
    assert len(train) == prepare.TRAIN_SENTENCES and len(dev) == prepare.DEV_SENTENCES
    assert prepare.label_count(train) == prepare.TRAIN_LABELS
    # flat dev trees: nothing for parse F1 to score, so dev F1 never improves
    assert all(charspan.constituents(t) == Counter() for t in dev)


def test_tracer_wraps_every_binding(tmp_path):
    script = """
import json, sys
import tracing, charspan
from charspan import cli, losses, trainer
tracer = tracing.Tracer()
tracing.install(tracer)
assert cli.cky_decode is losses.cky_decode is trainer.cky_decode is charspan.cky_decode
corpus = charspan.synthesize_corpus(2, seed=1, median_chars=6.0, max_chars=8)
cts = [charspan.to_char_tree(t) for t in corpus]
vocab = charspan.build_vocab(cts)
scores = charspan.oracle_scores(charspan.gold_span_labels(cts[0]), vocab)
charspan.tree_loss(scores, cts[0], vocab)
print(json.dumps({"metrics": tracing.layer_metrics(tracer.state()),
                  "n": scores.n, "labels": len(vocab), "spans": len(tracer.spans)}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        ["src", os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    out = json.loads(proc.stdout)
    metrics, n = out["metrics"], out["n"]
    for name in ("losses.tree_loss", "decoder.cky_decode", "decoder.apply_masks",
                 "decoder.fill_chart"):
        assert metrics[name + ".calls"] == 1
        assert metrics[name + ".self_ms"] > 0.0
    # one span per to_char_tree call, then tree_loss and the three decoder
    # calls nested in it
    assert out["spans"] == metrics["chartree.to_char_tree.calls"] + 4
    assert metrics["decoder.cells"] == n * (n + 1) // 2 * out["labels"]
    assert metrics["decoder.score_mb"] == (n + 1) ** 2 * out["labels"] * 8 / 1e6
