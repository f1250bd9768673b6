"""Acceptance gate.

Seven criteria with pinned tolerances; each test prints one PASS/FAIL line
into the terminal summary (see conftest.pytest_terminal_summary).
"""

import functools
import io
import re
import time

import numpy as np
import pytest

from charspan.chartree import (from_char_tree, gold_span_labels,
                               load_char_trees, segmentation_of, to_char_tree)
from charspan.cli import main as cli_main
from charspan.decoder import (DecodeConfig, apply_masks, brute_force_decode,
                              cky_decode, _enumerate_trees, _span_argmax)
from charspan.labels import NULL_LABEL
from charspan.losses import label_loss, tree_loss
from charspan.metrics import joint_report, parse_f1, seg_f1
from charspan.scorers import MLPHead, mlp_backward
from charspan.scoring import (LabelVocab, SpanScores, build_vocab, iter_spans,
                              oracle_scores, span_representation, span_row,
                              write_scores)
from charspan.synthesis import synthesize_bench_corpus, synthesize_corpus
from charspan.trainer import TrainConfig, train
from charspan.treebank import load_corpus, parse_bracketed, save_corpus

from conftest import record_acceptance
from fdcheck import finite_difference, relative_error


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                record_acceptance(f"criterion {num} FAIL - {title}: {e}")
                raise
            suffix = f" ({detail})" if detail else ""
            record_acceptance(f"criterion {num} PASS - {title}{suffix}")
        return wrapper
    return decorate


@criterion(1, "round-trip on >=200 synthetic trees, 100%, < 5 s")
def test_criterion_1_round_trip(synthetic_corpus):
    trees = list(synthetic_corpus)
    assert len(trees) >= 200
    t0 = time.perf_counter()
    exact = 0
    for t in trees:
        back, seg = from_char_tree(to_char_tree(t))
        if back == t and seg.spans == segmentation_of(t).spans:
            exact += 1
    elapsed = time.perf_counter() - t0
    assert exact == len(trees), f"{len(trees) - exact} trees failed"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    return f"{exact}/{len(trees)} trees in {elapsed:.2f} s"


@criterion(2, "cky equals brute force on 1000 random instances, < 60 s")
def test_criterion_2_decoder_optimality():
    vocabs = [
        LabelVocab([NULL_LABEL, "@1", "NN"]),
        LabelVocab([NULL_LABEL, "@1", "NN", "@2"]),
    ]
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for case in range(1000):
        n = int(rng.integers(1, 9))
        vocab = vocabs[case % len(vocabs)]
        values = rng.uniform(-1.0, 1.0, (n + 1, n + 1, len(vocab)))
        scores = SpanScores(n, len(vocab), values[np.triu_indices(n + 1, k=1)],
                            validate=False)
        tree_c, total_c = cky_decode(scores, vocab)
        tree_b, total_b = brute_force_decode(scores, vocab)
        assert abs(total_c - total_b) <= 1e-9, f"case {case}"
        assert tree_c == tree_b, f"case {case}: tie rule violated"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f} s"
    return f"1000 instances, n<=8, L<=4, in {elapsed:.2f} s"


@pytest.fixture(scope="module")
def score_file_run(synthetic_corpus, tmp_path_factory):
    """Oracle score file -> cmd_parse -> word trees, exercising the
    external-scores pathway end to end."""
    d = tmp_path_factory.mktemp("oracle")
    trees = list(synthetic_corpus)
    cts = [to_char_tree(t) for t in trees]
    vocab = build_vocab(cts)
    save_corpus(trees, d / "gold.txt")
    with io.open(d / "scores.txt", "w", encoding="utf-8") as f:
        for k, ct in enumerate(cts):
            write_scores(oracle_scores(gold_span_labels(ct), vocab), vocab, f,
                         sentence_id=str(k))
    with io.open(d / "sents.txt", "w", encoding="utf-8") as f:
        for ct in cts:
            f.write(ct.sentence() + "\n")
    code = cli_main(["parse",
                     "--score-file", str(d / "scores.txt"),
                     "--input", str(d / "sents.txt"),
                     "--output", str(d / "pred.txt"),
                     "--char-trees", str(d / "pred_char.txt")])
    return d, trees, cts, code


@criterion(3, "oracle score file decodes to gold, joint F1 = 1.0")
def test_criterion_3_oracle_reconstruction(score_file_run):
    d, gold_trees, gold_cts, code = score_file_run
    assert code == 0
    pred_cts = load_char_trees(d / "pred_char.txt")
    assert pred_cts == gold_cts  # exact CharTree reproduction
    pred_trees = list(load_corpus(d / "pred.txt"))
    assert pred_trees == gold_trees
    report = joint_report(gold_trees, pred_trees)
    assert "seg_f1=1.0 par_f1=1.0" in report
    seg = seg_f1([segmentation_of(t) for t in gold_trees],
                 [segmentation_of(t) for t in pred_trees])
    par = parse_f1(gold_trees, pred_trees)
    assert seg.f1 == 1.0 and par.f1 == 1.0
    return f"{len(gold_trees)} sentences via cmd_parse --score-file"


def _dense_from_sparse(param_shape, ids, rows):
    out = np.zeros(param_shape)
    np.add.at(out, ids, rows)
    return out


@criterion(4, "gradient checks: mlp < 1e-4, label loss < 1e-4, "
              "tree loss < 1e-3, >=100 cases each")
def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(7)
    dim, hidden, num_labels = 8, 4, 3

    mlp_cases = 0
    while mlp_cases < 100:
        head = MLPHead(dim, num_labels, hidden=hidden, dropout=0.0,
                       rng=np.random.default_rng(int(rng.integers(1 << 30))))
        ids = rng.integers(0, dim, size=int(rng.integers(1, 6)))
        rep = span_representation("好" * 4, 0, 2, dim=dim)
        rep.ids = np.asarray(ids, dtype=np.int64)
        if np.abs(head._pre_hidden(rep)).min() < 1e-4:
            continue  # too close to a relu kink for central differences
        upstream = rng.normal(size=num_labels)

        def objective():
            return float(head.score(rep) @ upstream)

        grads = mlp_backward(head, rep, upstream)
        worst = 0.0
        for name, param in head.params().items():
            numeric = finite_difference(objective, param)
            if name == "W1":
                analytic = _dense_from_sparse(param.shape, grads["W1"][0],
                                              grads["W1"][1])
            else:
                analytic = grads[name]
            worst = max(worst, relative_error(analytic, numeric))
        assert worst < 1e-4, f"mlp case {mlp_cases}: rel err {worst:.2e}"
        mlp_cases += 1

    word_pool = ["(NN 飞机场)", "(IP (NN 我) (VV 走))", "(NN 中国)",
                 "(IP (NP (NN 中国)) (VP (VV 发展)))"]
    cts = [to_char_tree(parse_bracketed(text)[0]) for text in word_pool]
    vocab = build_vocab(cts)
    golds = [(ct, gold_span_labels(ct)) for ct in cts]

    def numeric_grad(loss_fn, scores, eps):
        keys, numeric = [], []
        for i, j in iter_spans(scores.n):
            k = span_row(scores.n, i, j)
            for l in range(scores.num_labels):
                saved = scores.values[k, l]
                scores.values[k, l] = saved + eps
                hi = loss_fn(scores).value
                scores.values[k, l] = saved - eps
                lo = loss_fn(scores).value
                scores.values[k, l] = saved
                keys.append((i, j, l))
                numeric.append((hi - lo) / (2 * eps))
        return keys, np.array(numeric)

    label_cases = 0
    for case in range(100):
        ct, gold = golds[case % len(golds)]
        n = gold.n
        values = rng.normal(0, 1, (n + 1, n + 1, len(vocab)))
        scores = SpanScores(n, len(vocab), values[np.triu_indices(n + 1, k=1)],
                            validate=False)
        loss = label_loss(scores, gold, vocab)
        keys, numeric = numeric_grad(lambda s: label_loss(s, gold, vocab),
                                     scores, 1e-6)
        analytic = np.array([loss.score_gradient[k] for k in keys])
        err = relative_error(analytic, numeric)
        assert err < 1e-4, f"label case {case}: rel err {err:.2e}"
        label_cases += 1

    def stable(scores, ct, vocab, margin, gap=1e-4):
        # the hinge is piecewise linear; a case is perturbation-stable when
        # every per-span label argmax and the tree argmax of the augmented
        # scores win by more than the finite-difference step can move them
        gold_pairs = {(i, j, vocab.index[lab])
                      for (i, j), lab in gold_span_labels(ct).entries.items()}
        aug = scores.copy()
        aug.values += margin
        for (i, j, l) in gold_pairs:
            k = span_row(scores.n, i, j)
            aug.values[k, l] = scores.values[k, l]
        masked = apply_masks(aug, vocab, DecodeConfig())
        for row in masked.values:
            finite = np.sort(row[np.isfinite(row)])[::-1]
            if len(finite) > 1 and finite[0] - finite[1] < gap:
                return False
        _, labscore = _span_argmax(masked.values, scores.n, scores.num_labels)
        totals = sorted((s for s, _ in
                         _enumerate_trees(labscore, 0, scores.n, {})),
                        reverse=True)
        return len(totals) < 2 or totals[0] - totals[1] >= gap

    tree_cases = 0
    attempts = 0
    while tree_cases < 100:
        attempts += 1
        assert attempts < 2000, "ran out of perturbation-stable draws"
        ct, gold = golds[attempts % len(golds)]
        n = gold.n
        values = rng.normal(0, 1, (n + 1, n + 1, len(vocab)))
        scores = SpanScores(n, len(vocab), values[np.triu_indices(n + 1, k=1)],
                            validate=False)
        if not stable(scores, ct, vocab, 1.0 / (2 * n - 1)):
            continue
        loss = tree_loss(scores, ct, vocab)
        keys, numeric = numeric_grad(lambda s: tree_loss(s, ct, vocab),
                                     scores, 1e-6)
        analytic = np.array([loss.score_gradient.get(k, 0.0) for k in keys])
        err = relative_error(analytic, numeric)
        assert err < 1e-3, f"tree case {tree_cases}: rel err {err:.2e}"
        tree_cases += 1

    return (f"mlp {mlp_cases}, label {label_cases}, tree {tree_cases} cases "
            f"({attempts - tree_cases} unstable draws skipped)")


@criterion(5, "50-sentence overfit to F1 = 1.0 within 100 epochs, "
              "loss switch after epoch 10")
def test_criterion_5_overfit():
    # Seed picked so no two spans share identical boundary features while
    # needing different gold labels; a linear scorer cannot fit such a pair.
    corpus = synthesize_corpus(50, seed=0, median_chars=8.0, max_chars=16)
    config = TrainConfig(scorer="linear", learning_rate=0.5, batch_size=10,
                         label_loss_epochs=10, max_epochs=100, seed=0)
    history = []
    checkpoint = train(corpus, corpus, config, history=history)
    kinds = {h["epoch"]: h["loss_kind"] for h in history}
    assert all(kinds[e] == "label" for e in range(1, 11))
    assert kinds[11] == "tree", "switch must happen exactly after epoch 10"
    perfect = [h for h in history
               if h["dev_seg_f1"] == 1.0 and h["dev_parse_f1"] == 1.0]
    assert perfect, "never reached seg F1 = parse F1 = 1.0 within 100 epochs"
    first = perfect[0]["epoch"]
    assert first <= 100
    return (f"seg F1 = parse F1 = 1.0 at epoch {first}, "
            f"switch at epoch 11, best dev {checkpoint.best_dev_f1}")


@criterion(6, "decode-only throughput >= 50 sents/sec, 348 sentences, "
              "10 repeats")
def test_criterion_6_throughput(tmp_path, capsys):
    corpus = synthesize_bench_corpus(348, seed=7)
    assert len(corpus) == 348
    path = tmp_path / "bench.txt"
    save_corpus(corpus, path)
    code = cli_main(["bench", str(path), "--repeats", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(re.findall(r"repeat=\d+ time=", captured.err)) == 10
    match = re.search(r"sents_per_sec_mean=([0-9.]+) sents_per_sec_std=([0-9.]+)",
                      captured.out)
    assert match, captured.out
    mean = float(match.group(1))
    std = float(match.group(2))
    assert mean >= 50.0, f"only {mean:.1f} sentences/sec"
    return f"{mean:.1f} +/- {std:.1f} sents/sec"


@criterion(7, "treebank-scale F1 not reproducible: substituted by the "
              "external score-file pathway")
def test_criterion_7_documented_substitute(score_file_run):
    # Benchmark-treebank accuracy needs the licensed CTB 5.1 corpus and a
    # pretrained encoder, neither shippable here.  The documented
    # substitute: externally supplied span scores decode end to end
    # through the same command-line pathway a real encoder would use.
    d, gold_trees, _, code = score_file_run
    assert code == 0
    assert (d / "scores.txt").stat().st_size > 0
    pred_trees = list(load_corpus(d / "pred.txt"))
    assert len(pred_trees) == len(gold_trees) >= 200
    report = joint_report(gold_trees, pred_trees)
    assert "seg_f1=1.0 par_f1=1.0" in report
    return "criteria 1-5 plus cmd_parse --score-file stand in for treebank-scale accuracy"
