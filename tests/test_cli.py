"""End-to-end command-line behavior.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import io
import re
import subprocess
import sys

import numpy as np
import pytest

from charspan.chartree import gold_span_labels, to_char_tree
from charspan.scorers import MLPHead
from charspan.scoring import build_vocab, oracle_scores, write_scores
from charspan.synthesis import synthesize_corpus
from charspan.trainer import Checkpoint
from charspan.treebank import load_corpus, save_corpus


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "charspan", *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    corpus = synthesize_corpus(8, seed=21, median_chars=7.0, max_chars=16)
    save_corpus(corpus, d / "gold.txt")
    cts = [to_char_tree(t) for t in corpus]
    vocab = build_vocab(cts)
    with io.open(d / "scores.txt", "w", encoding="utf-8") as f:
        for k, ct in enumerate(cts):
            write_scores(oracle_scores(gold_span_labels(ct), vocab), vocab, f,
                         sentence_id=str(k))
    with io.open(d / "sents.txt", "w", encoding="utf-8") as f:
        for ct in cts:
            f.write(ct.sentence() + "\n")
    return d


@pytest.fixture(scope="module")
def checkpoint(workdir):
    path = workdir / "model.npz"
    r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                str(path), "--learning-rate", "0.5", "--batch-size", "4",
                "--label-loss-epochs", "2", "--max-epochs", "4")
    assert r.returncode == 0, r.stderr
    assert path.exists()
    return path


def test_no_arguments_is_usage_error():
    r = run_cli()
    assert r.returncode == 1
    assert "usage" in r.stderr


def test_unknown_subcommand_is_usage_error():
    r = run_cli("segment")
    assert r.returncode == 1


def test_transform_detransform_round_trip(workdir):
    r = run_cli("transform", str(workdir / "gold.txt"), str(workdir / "char.txt"))
    assert r.returncode == 0, r.stderr
    assert "transformed 8 trees" in r.stderr
    r = run_cli("detransform", str(workdir / "char.txt"),
                str(workdir / "back.txt"), "--segs", str(workdir / "segs.txt"))
    assert r.returncode == 0, r.stderr
    original = (workdir / "gold.txt").read_text(encoding="utf-8")
    assert (workdir / "back.txt").read_text(encoding="utf-8") == original
    segs = (workdir / "segs.txt").read_text(encoding="utf-8").splitlines()
    sents = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    assert [s.replace(" ", "") for s in segs] == sents


def test_transform_reports_line_number(workdir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("(IP (NN 好))\n(IP (NN 好)\n", encoding="utf-8")
    r = run_cli("transform", str(bad), str(tmp_path / "out.txt"))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr
    assert "line 2" in r.stderr


def test_detransform_rejects_nonbinary(tmp_path):
    bad = tmp_path / "bad_char.txt"
    bad.write_text("(IP (@1 a) (@1 b) (@1 c))\n", encoding="utf-8")
    r = run_cli("detransform", str(bad), str(tmp_path / "out.txt"))
    assert r.returncode == 2
    assert "binary" in r.stderr


def test_parse_from_score_file_reproduces_gold(workdir):
    out = workdir / "pred.txt"
    r = run_cli("parse", "--score-file", str(workdir / "scores.txt"),
                "--input", str(workdir / "sents.txt"),
                "--output", str(out), "--segs", str(workdir / "pred_segs.txt"))
    assert r.returncode == 0, r.stderr
    assert out.read_text(encoding="utf-8") == \
        (workdir / "gold.txt").read_text(encoding="utf-8")
    r = run_cli("eval", str(workdir / "gold.txt"), str(out))
    assert r.returncode == 0
    assert "seg_f1=1.0 par_f1=1.0" in r.stdout


def test_parse_score_file_without_input_uses_placeholders(workdir):
    r = run_cli("parse", "--score-file", str(workdir / "scores.txt"))
    assert r.returncode == 0, r.stderr
    assert "□" in r.stdout
    assert len(r.stdout.splitlines()) == 8


def test_parse_rejects_sentence_count_mismatch(workdir, tmp_path):
    short = tmp_path / "short.txt"
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    short.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    r = run_cli("parse", "--score-file", str(workdir / "scores.txt"),
                "--input", str(short))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr


def test_parse_rejects_wrong_sentence_length(workdir, tmp_path):
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0] + "嗯"
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    r = run_cli("parse", "--score-file", str(workdir / "scores.txt"),
                "--input", str(mangled))
    assert r.returncode == 2
    assert "characters" in r.stderr


def test_parse_requires_input_with_checkpoint(workdir):
    r = run_cli("parse", "--checkpoint", "whatever.npz")
    assert r.returncode == 1
    assert "--input" in r.stderr


def test_parse_requires_exactly_one_source(workdir):
    r = run_cli("parse", "--checkpoint", "a.npz", "--score-file", "b.txt")
    assert r.returncode == 1


def test_train_logs_epochs_and_saves(checkpoint):
    # fixture already ran the command; reuse its artifacts
    assert checkpoint.exists()


def test_train_stderr_shows_loss_kinds(workdir, tmp_path):
    r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                str(tmp_path / "m.npz"), "--learning-rate", "0.5",
                "--batch-size", "4", "--label-loss-epochs", "1",
                "--max-epochs", "2")
    assert r.returncode == 0, r.stderr
    assert "epoch=1 loss_kind=label" in r.stderr
    assert "epoch=2 loss_kind=tree" in r.stderr
    assert "saved checkpoint" in r.stderr


def test_train_streams_epoch_lines(workdir, tmp_path, monkeypatch, capsys):
    from charspan import cli

    def failing_train(train_corpus, dev_corpus, config, history):
        history.append({"epoch": 1, "loss_kind": "label", "loss": 2.5,
                        "lr": 0.5, "decays": 0, "dev_seg_f1": 0.25,
                        "dev_parse_f1": 0.125})
        raise ValueError("diverged in epoch 2")

    monkeypatch.setattr(cli, "train", failing_train)
    code = cli.main(["train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                     str(tmp_path / "m.npz")])
    assert code == 2
    # the line of the finished epoch came out before training failed
    assert capsys.readouterr().err.splitlines() == [
        "epoch=1 loss_kind=label loss=2.500000 lr=0.5 decays=0 "
        "dev_seg_f1=0.2500 dev_parse_f1=0.1250",
        "charspan: error: diverged in epoch 2",
    ]
    assert not (tmp_path / "m.npz").exists()


def test_train_config_file_with_flag_override(workdir, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("max_epochs = 2\nbatch_size = 4\nlearning_rate = 0.5\n",
                   encoding="utf-8")
    r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                str(tmp_path / "m.npz"), "--config", str(cfg),
                "--max-epochs", "1")
    assert r.returncode == 0, r.stderr
    assert "epoch=2" not in r.stderr


def test_train_rejects_bad_config(workdir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("optimizer = adam\n", encoding="utf-8")
    r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                str(tmp_path / "m.npz"), "--config", str(cfg))
    assert r.returncode == 2
    assert "unknown key" in r.stderr


def test_parse_with_checkpoint(workdir, checkpoint, tmp_path):
    out = tmp_path / "pred.txt"
    segs = tmp_path / "segs.txt"
    r = run_cli("parse", "--checkpoint", str(checkpoint),
                "--input", str(workdir / "sents.txt"),
                "--output", str(out), "--segs", str(segs))
    assert r.returncode == 0, r.stderr
    trees = load_corpus(out)
    sents = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    assert len(trees) == len(sents)
    for tree, sentence in zip(trees, sents):
        assert "".join(tree.leaves()) == sentence
    seg_lines = segs.read_text(encoding="utf-8").splitlines()
    assert [s.replace(" ", "") for s in seg_lines] == sents


def test_parse_threads_match_single_thread(workdir, checkpoint, tmp_path):
    for name, source in (("ckpt", ("--checkpoint", str(checkpoint))),
                         ("scores", ("--score-file", str(workdir / "scores.txt")))):
        a = tmp_path / f"{name}_a.txt"
        b = tmp_path / f"{name}_b.txt"
        for out, threads in ((a, "1"), (b, "3")):
            r = run_cli("parse", *source, "--input", str(workdir / "sents.txt"),
                        "--output", str(out), "--threads", threads)
            assert r.returncode == 0, r.stderr
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def mlp_checkpoint(workdir):
    path = workdir / "mlp.npz"
    vocab = build_vocab(to_char_tree(t) for t in load_corpus(workdir / "gold.txt"))
    head = MLPHead(1 << 8, len(vocab), hidden=4, dropout=0.0)
    Checkpoint("mlp", head.params(), vocab.labels, 1 << 8, 4, 0.0, 1, 0.0,
               0).save(path)
    return path


@pytest.mark.parametrize("kind, drop, replace, message", [
    ("mlp", "p_W2", {}, "no 'p_W2' array"),
    ("mlp", None, {"p_b1": np.zeros(1)}, r"'p_b1' has shape \(1,\), expected \(4,\)"),
    ("linear", "W_ids", {}, "no 'W_ids' array"),
], ids=["mlp-without-W2", "mlp-b1-of-shape-1", "linear-without-W_ids"])
def test_parse_rejects_malformed_checkpoint(workdir, checkpoint, mlp_checkpoint,
                                            tmp_path, kind, drop, replace,
                                            message):
    source = mlp_checkpoint if kind == "mlp" else checkpoint
    with np.load(source) as data:
        arrays = {name: data[name] for name in data.files if name != drop}
    bad = tmp_path / "bad.npz"
    np.savez(bad, **{**arrays, **replace})
    args = ("--input", str(workdir / "sents.txt"), "--output", str(tmp_path / "o.txt"))
    r = run_cli("parse", "--checkpoint", str(source), *args)
    assert r.returncode == 0, r.stderr
    r = run_cli("parse", "--checkpoint", str(bad), *args)
    assert r.returncode == 2
    assert re.search(f"charspan: error: {re.escape(str(bad))}: .*{message}", r.stderr), r.stderr
    assert "Traceback" not in r.stderr


def test_eval_report_file(workdir, tmp_path):
    report = tmp_path / "report.txt"
    r = run_cli("eval", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                "--report-file", str(report))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("metric")
    line = report.read_text(encoding="utf-8").strip()
    assert line.startswith("seg_f1=1.0 par_f1=1.0")


def test_eval_yield_mismatch_is_data_error(workdir, tmp_path):
    other = tmp_path / "other.txt"
    save_corpus(synthesize_corpus(8, seed=77, median_chars=7.0, max_chars=16),
                other)
    r = run_cli("eval", str(workdir / "gold.txt"), str(other))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr


def test_bench_random_scores(workdir):
    r = run_cli("bench", str(workdir / "gold.txt"), "--repeats", "2")
    assert r.returncode == 0, r.stderr
    assert "repeat=1 time=" in r.stderr
    assert "repeat=2 time=" in r.stderr
    summary = r.stdout.strip().splitlines()[-1]
    assert summary.startswith("sentences=8 repeats=2")
    assert "sents_per_sec_mean=" in summary


def test_bench_include_scoring_needs_checkpoint(workdir):
    r = run_cli("bench", str(workdir / "gold.txt"), "--include-scoring")
    assert r.returncode == 1
    assert "--include-scoring" in r.stderr


def test_bench_with_checkpoint_scoring(workdir, checkpoint):
    r = run_cli("bench", str(workdir / "gold.txt"), "--repeats", "1",
                "--checkpoint", str(checkpoint), "--include-scoring")
    assert r.returncode == 0, r.stderr
    assert "include_scoring=true" in r.stdout


def test_missing_file_is_data_error(tmp_path):
    r = run_cli("transform", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt"))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr
