"""End-to-end command-line behavior.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from charspan import cli, trainer
from charspan.chartree import gold_span_labels, load_char_trees, to_char_tree
from charspan.labels import NULL_LABEL
from charspan.scorers import LinearScorer, MLPHead
from charspan.scoring import (LabelVocab, SpanScores, build_vocab, oracle_scores,
                              write_scores)
from charspan.synthesis import synthesize_corpus
from charspan.trainer import Checkpoint
from charspan.treebank import load_corpus, save_corpus
from memcheck import traced_peak


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


def _deep_tree(depth):
    # a right-branching tree ``depth`` levels deep, its characters and its
    # text: (IP (NN c0) (IP (NN c1) ... (NN c<depth>)))
    chars = [chr(0x4E00 + k) for k in range(depth + 1)]
    text = ("".join(f"(IP (NN {c}) " for c in chars[:-1]) + f"(NN {chars[-1]})"
            + ")" * depth + "\n")
    return chars, text


def test_transform_round_trip_of_a_word_tree_deeper_than_the_recursion_limit(
        tmp_path):
    # 1100 levels, past Python's default limit of 1000 frames
    chars, text = _deep_tree(1100)
    gold = tmp_path / "deep.txt"
    gold.write_text(text, encoding="utf-8")
    r = run_cli("transform", str(gold), str(tmp_path / "deep.char"))
    assert r.returncode == 0, r.stderr
    r = run_cli("detransform", str(tmp_path / "deep.char"), str(tmp_path / "back.txt"),
                "--segs", str(tmp_path / "segs.txt"))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "back.txt").read_text(encoding="utf-8") == text
    assert (tmp_path / "segs.txt").read_text(encoding="utf-8") == " ".join(chars) + "\n"


def test_eval_of_a_word_tree_deeper_than_the_recursion_limit(tmp_path):
    _, text = _deep_tree(1100)
    gold = tmp_path / "deep.txt"
    gold.write_text(text, encoding="utf-8")
    r = run_cli("eval", str(gold), str(gold))
    assert r.returncode == 0, r.stderr
    # every IP but the root is scored: 1099 brackets, all matched
    assert r.stdout.splitlines()[2].split()[-3:] == ["1099"] * 3
    assert "seg_f1=1.0 par_f1=1.0" in r.stdout


def test_transform_reports_line_number(workdir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("(IP (NN 好))\n(IP (NN 好)\n", encoding="utf-8")
    r = run_cli("transform", str(bad), str(tmp_path / "out.txt"))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr
    assert "line 2" in r.stderr


@pytest.mark.parametrize("command", [
    "parse-input", "parse-scores", "eval-gold", "eval-pred", "train-corpus",
    "train-config", "transform", "detransform", "bench"])
def test_input_that_is_not_utf8_names_file_and_line(workdir, checkpoint, tmp_path,
                                                    capsys, command):
    # a good first line, then a 0xff byte, which no UTF-8 text holds
    text = {"parse-input": "好\n", "parse-scores": "#scores 0 1 2\n#labels NULL ",
            "train-config": "seed = 1\n# "}.get(command, "(IP (NN 好))\n(IP (NN ")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(text.encode("utf-8") + b"\xff\n")
    where = len(text.encode("utf-8").split(b"\n")[1])  # the byte's place in its line
    gold, out = str(workdir / "gold.txt"), str(tmp_path / "out")
    args = {"parse-input": ["parse", "--checkpoint", str(checkpoint), "--input", str(bad),
                            "--output", out],
            "parse-scores": ["parse", "--score-file", str(bad), "--output", out],
            "eval-gold": ["eval", str(bad), gold],
            "eval-pred": ["eval", gold, str(bad)],
            "train-corpus": ["train", gold, str(bad), out],
            "train-config": ["train", gold, gold, out, "--config", str(bad)],
            "transform": ["transform", str(bad), out],
            "detransform": ["detransform", str(bad), out],
            "bench": ["bench", str(bad)]}[command]
    capsys.readouterr()
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        f"charspan: error: {bad}: line 2: 'utf-8' codec can't decode byte 0xff in "
        f"position {where}: invalid start byte\n")
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("bad", [" ", "\t", "(", ")"])
def test_parse_rejects_input_line_that_cannot_be_leaves(workdir, checkpoint,
                                                        tmp_path, bad):
    # rejected as the input is read, with file and line, and nothing is written
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][:1] + bad + lines[2][1:]
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("\n\n".join(lines) + "\n", encoding="utf-8")  # blank lines count
    for source in (("--checkpoint", str(checkpoint)),
                   ("--score-file", str(workdir / "scores.txt"))):
        r = run_cli("parse", *source, "--input", str(mangled),
                    "--output", str(tmp_path / "out.txt"))
        assert r.returncode == 2
        assert r.stderr == (f"charspan: error: {mangled}: line 5: {bad!r} cannot "
                            f"be a character of a sentence\n")
        assert not (tmp_path / "out.txt").exists()


def test_parse_score_file_header_claiming_too_many_spans(tmp_path):
    # 112 GiB of scores for one span line: either the allocation fails or the
    # block is truncated, and both are data errors naming the header line
    path = tmp_path / "huge.txt"
    path.write_text("#scores s 100000 3\n#labels NULL @1 NN\n0 1 0 0 0\n\n",
                    encoding="utf-8")
    r = run_cli("parse", "--score-file", str(path))
    assert r.returncode == 2
    assert f"charspan: error: {path}: line 1: " in r.stderr
    assert "Traceback" not in r.stderr


def test_parse_score_file_error_in_last_block_writes_nothing(workdir, tmp_path,
                                                            monkeypatch, capsys):
    # the blocks before the bad one are decoded first; the error still names
    # the file and the line, and no output file is started
    lines = (workdir / "scores.txt").read_text(encoding="utf-8").split("\n")
    last = len(lines) - 3  # index of the last span line: the text ends "\n\n"
    lines[last] = lines[last].rsplit(" ", 1)[0] + " oops"
    path = tmp_path / "scores.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    decode = cli.cky_decode
    decoded = []

    def counting_decode(scores, *args, **kwargs):
        decoded.append(scores.n)
        return decode(scores, *args, **kwargs)

    monkeypatch.setattr(cli, "cky_decode", counting_decode)
    outputs = [tmp_path / name for name in ("trees.txt", "segs.txt", "chars.txt")]
    code = cli.main(["parse", "--score-file", str(path),
                     "--input", str(workdir / "sents.txt"),
                     "--output", str(outputs[0]), "--segs", str(outputs[1]),
                     "--char-trees", str(outputs[2])])
    assert code == 2
    assert capsys.readouterr().err == (f"charspan: error: {path}: line {last + 1}: "
                                       f"non-numeric score value\n")
    assert len(decoded) == 7
    assert not any(out.exists() for out in outputs)


@pytest.mark.parametrize("keep, extra", [(3, 0), (8, 1)])
def test_parse_sentence_count_mismatch_counts_every_block(workdir, tmp_path, capsys,
                                                          keep, extra):
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    sents = tmp_path / "sents.txt"
    sents.write_text("\n".join(lines[:keep] + ["嗯"] * extra) + "\n",
                     encoding="utf-8")
    out = tmp_path / "trees.txt"
    scores = workdir / "scores.txt"
    code = cli.main(["parse", "--score-file", str(scores),
                     "--input", str(sents), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"charspan: error: {scores}: 8 sentences, "
                                       f"but {sents} has {keep + extra}\n")
    assert not out.exists()


def test_parse_reports_the_first_fault(workdir, tmp_path, capsys):
    # sentence 1 has the wrong length and the input ends after sentence 2:
    # the length error is reached before the count error; it names the
    # line of --input (a blank line is skipped but counted) and the block
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    sents = tmp_path / "sents.txt"
    sents.write_text("\n".join([lines[0], "", lines[1] + "嗯", lines[2]]) + "\n",
                     encoding="utf-8")
    scores = workdir / "scores.txt"
    code = cli.main(["parse", "--score-file", str(scores),
                     "--input", str(sents), "--output", str(tmp_path / "t.txt")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"charspan: error: {sents}: line 3: {len(lines[1]) + 1} characters, "
        f"but sentence 1 of {scores} has n={len(lines[1])}\n")
    assert sorted(os.listdir(tmp_path)) == ["sents.txt"]


def test_parse_score_file_memory_stays_at_one_block(tmp_path):
    # Scores are held one block at a time and each sentence is written
    # before the next block is read, so 12 more sentences add less than
    # one block (39 KB at n = 40 and L = 6).
    ns, num_labels = (20, 27, 33, 40), 6
    block_bytes = max(ns) * (max(ns) + 1) // 2 * num_labels * 8
    vocab = LabelVocab([NULL_LABEL, "@1", "@2"] +
                       [f"X{k}" for k in range(num_labels - 3)])
    rng = np.random.default_rng(5)
    buf = io.StringIO()
    for k, n in enumerate(ns):
        values = rng.normal(size=(n * (n + 1) // 2, num_labels))
        write_scores(SpanScores(n, num_labels, values), vocab, buf, str(k))

    def peak(repeats: int) -> int:
        path = tmp_path / f"scores{repeats}.txt"
        path.write_text(buf.getvalue() * repeats, encoding="utf-8")
        code, peak_bytes = traced_peak(lambda: cli.main(
            ["parse", "--score-file", str(path), "--output", str(tmp_path / "trees.txt")]))
        assert code == 0
        return peak_bytes

    peak(1)  # first calls fill lazy caches
    assert peak(4) - peak(1) < block_bytes


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


def test_failing_train_save_keeps_the_old_checkpoint(workdir, tmp_path,
                                                     monkeypatch, capsys):
    # The save fails after writing its first arrays.  The checkpoint goes to
    # a temporary file that replaces the target only when complete, so the
    # old checkpoint keeps its bytes and no temporary file is left.
    out = tmp_path / "out"
    out.mkdir()
    (out / "model.npz").write_bytes(b"old checkpoint")
    written = []
    write_npy = trainer._write_npy

    def failing_write(zf, name, *args, **kwargs):
        if name == "W_rows":
            raise OSError(28, "No space left on device")
        write_npy(zf, name, *args, **kwargs)
        written.append(name)

    monkeypatch.setattr(trainer, "_write_npy", failing_write)
    code = cli.main(["train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                     str(out / "model.npz"), "--max-epochs", "1"])
    assert code == 2
    assert written[-1] == "W_ids"
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "charspan: error: [Errno 28] No space left on device"
    assert os.listdir(out) == ["model.npz"]
    assert (out / "model.npz").read_bytes() == b"old checkpoint"


def test_train_without_a_temporary_directory_exits_2(workdir, tmp_path,
                                                     monkeypatch, capsys):
    # the best-dev copy lives in a temporary file; failing to make one is
    # an error (exit 2) before the first epoch, with no output file
    missing = tmp_path / "missing"
    monkeypatch.setattr(tempfile, "tempdir", str(missing))
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main(["train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                     str(out / "model.npz"), "--max-epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"charspan: error: \[Errno 2\] No such file or directory: "
                        r"'%s[^']*'\n" % re.escape(str(missing)), err), err
    assert os.listdir(out) == []


def test_train_writes_the_checkpoint_to_standard_output(workdir, tmp_path,
                                                       monkeypatch, capsysbinary):
    # "-" gets the bytes the same training saves to a file, and the
    # checkpoint staged in the temporary directory is removed
    frozen = time.gmtime(1_700_000_000)  # the zip entries' modification time
    monkeypatch.setattr(time, "localtime", lambda *args: frozen)
    temp_dir = tmp_path / "tmp"
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    args = ["train", str(workdir / "gold.txt"), str(workdir / "gold.txt")]
    assert cli.main([*args, str(tmp_path / "m.npz"), "--max-epochs", "2"]) == 0
    capsysbinary.readouterr()
    assert cli.main([*args, "-", "--max-epochs", "2"]) == 0
    assert capsysbinary.readouterr().out == (tmp_path / "m.npz").read_bytes()
    assert os.listdir(temp_dir) == []


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
    # a bad value must stop the run before the first epoch, not when the
    # loss that reads it first runs
    cfg = tmp_path / "bad.cfg"
    for text, flags, message in [
            ("optimizer = adam\n", (), "unknown key"),
            ("margin_mode = bogus\n", (), "unknown margin mode 'bogus'"),
            ("loss_spans = some\n", (), "unknown span set 'some'"),
            ("", ("--learning-rate", "nan"), "learning_rate must be finite and positive"),
            ("", ("--learning-rate", "inf"), "learning_rate must be finite and positive"),
            ("", ("--decay-factor", "nan"), "decay_factor must be between 0 and 1"),
            ("", ("--decay-factor", "1"), "decay_factor must be between 0 and 1"),
            ("", ("--decay-factor", "7"), "decay_factor must be between 0 and 1"),
            ("", ("--seed", "-1"), "seed must be non-negative")]:
        cfg.write_text(text, encoding="utf-8")
        r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                    str(tmp_path / "m.npz"), "--config", str(cfg), *flags)
        assert r.returncode == 2
        assert message in r.stderr
        assert "epoch=" not in r.stderr


# the train settings: key, type, a value, another value, a value that is
# not one, and the message of that value in a config file
TRAIN_SETTINGS = [
    ("scorer", str, "mlp", "linear", "cnn", "unknown scorer 'cnn'"),
    ("learning_rate", float, "0.25", "0.5", "fast", "bad value 'fast' for 'learning_rate'"),
    ("decay_factor", float, "0.25", "0.75", "x", "bad value 'x' for 'decay_factor'"),
    ("decay_patience", int, "4", "2", "1.5", "bad value '1.5' for 'decay_patience'"),
    ("max_decay", int, "5", "2", "x", "bad value 'x' for 'max_decay'"),
    ("batch_size", int, "6", "2", "many", "bad value 'many' for 'batch_size'"),
    ("label_loss_epochs", int, "7", "2", "x", "bad value 'x' for 'label_loss_epochs'"),
    ("max_epochs", int, "8", "2", "x", "bad value 'x' for 'max_epochs'"),
    ("mlp_hidden", int, "9", "2", "x", "bad value 'x' for 'mlp_hidden'"),
    ("dropout", float, "0.25", "0.5", "x", "bad value 'x' for 'dropout'"),
    ("seed", int, "10", "2", "x", "bad value 'x' for 'seed'"),
    ("margin_mode", str, "hamming", "flat", "bogus", "unknown margin mode 'bogus'"),
    ("loss_spans", str, "gold", "all", "some", "unknown span set 'some'"),
    ("feature_dim", int, "64", "128", "x", "bad value 'x' for 'feature_dim'"),
]


@pytest.mark.parametrize("key, cast, value, other, bad, message", TRAIN_SETTINGS,
                         ids=[setting[0] for setting in TRAIN_SETTINGS])
def test_train_setting_as_flag_and_config_key(workdir, tmp_path, capsys, key, cast,
                                              value, other, bad, message):
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "t.cfg"
    train = ["train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
             str(tmp_path / "m.npz")]

    def config(*args):
        return cli._train_config_from_args(cli.build_parser().parse_args([*train, *args]))

    # a flag, a config-file key, and both: the flag wins
    setting = getattr(config(flag, value), key)
    assert type(setting) is cast and setting == cast(value)
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    setting = getattr(config("--config", str(cfg)), key)
    assert type(setting) is cast and setting == cast(value)
    assert getattr(config("--config", str(cfg), flag, other), key) == cast(other)
    # a value the setting cannot take: a usage error as a flag, a data
    # error in a config file, both before any work
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*train, flag, bad])
    assert exit_info.value.code == 1
    assert f"charspan train: error: argument {flag}: invalid " in capsys.readouterr().err
    cfg.write_text(f"seed = 1\n{key} = {bad}\n", encoding="utf-8")
    assert cli.main([*train, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"charspan: error: {cfg}: line 2: {message}\n"
    assert not (tmp_path / "m.npz").exists()


def test_parse_with_checkpoint(workdir, checkpoint, tmp_path):
    out = tmp_path / "pred.txt"
    segs = tmp_path / "segs.txt"
    chars = tmp_path / "chars.txt"
    r = run_cli("parse", "--checkpoint", str(checkpoint),
                "--input", str(workdir / "sents.txt"),
                "--output", str(out), "--segs", str(segs), "--char-trees", str(chars))
    assert r.returncode == 0, r.stderr
    trees = load_corpus(out)
    sents = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    assert len(trees) == len(sents)
    for tree, sentence in zip(trees, sents):
        assert "".join(tree.leaves()) == sentence
    seg_lines = segs.read_text(encoding="utf-8").splitlines()
    assert [s.replace(" ", "") for s in seg_lines] == sents
    assert [ct.sentence() for ct in load_char_trees(chars)] == sents


def test_parse_checkpoint_imports_neither_openssl_nor_a_thread_pool(workdir,
                                                                    checkpoint,
                                                                    tmp_path):
    # hashlib loads OpenSSL's libcrypto, and the thread pool logging and
    # queue; a single-threaded parse process needs none of them
    script = ("import sys\n"
              "import charspan.cli\n"
              "code = charspan.cli.main(sys.argv[1:])\n"
              "print(code, [name for name in ('_hashlib', 'hashlib', "
              "'concurrent.futures') if name in sys.modules])\n")
    r = subprocess.run([sys.executable, "-c", script, "parse", "--checkpoint",
                        str(checkpoint), "--input", str(workdir / "sents.txt"),
                        "--output", str(tmp_path / "trees.txt")],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 []\n"


@pytest.mark.parametrize("source", ["checkpoint", "score-file"])
def test_failing_parse_leaves_no_output_and_no_temporary_file(workdir, checkpoint,
                                                              tmp_path, capsys,
                                                              source):
    # Line 5 holds the third sentence, so two are decoded and written to
    # the temporary files before the error.  The targets are replaced only
    # after the last sentence: one that existed keeps its bytes, and
    # standard output gets nothing.
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][:1] + " " + lines[2][1:]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "trees.txt").write_text("old trees\n", encoding="utf-8")
    decoded = []
    if source == "checkpoint":
        scored = ["--checkpoint", str(checkpoint)]
        name = "decode_sentence"

        def counting_decode(scorer, chars, *args, **kwargs):
            decoded.append(len(chars))
            return decode(scorer, chars, *args, **kwargs)
    else:
        scored = ["--score-file", str(workdir / "scores.txt")]
        name = "cky_decode"

        def counting_decode(scores, *args, **kwargs):
            decoded.append(scores.n)
            return decode(scores, *args, **kwargs)
    decode = getattr(cli, name)

    for output in (str(out / "trees.txt"), "-"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, name, counting_decode)
            code = cli.main(["parse", *scored, "--input", str(bad), "--output", output,
                             "--segs", str(out / "segs.txt"),
                             "--char-trees", str(out / "chars.txt")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"charspan: error: {bad}: line 5: ' ' cannot "
                                f"be a character of a sentence\n")
        assert sorted(os.listdir(out)) == ["trees.txt"]
        assert (out / "trees.txt").read_text(encoding="utf-8") == "old trees\n"
    assert decoded == [len(lines[0]), len(lines[1])] * 2


def test_parse_output_replaces_a_file_and_writes_through_others(workdir, tmp_path,
                                                                 capsys):
    # an existing target is replaced and keeps its mode; "-" and a target
    # that is not a regular file (here /dev/null) are written to, not replaced
    args = ["parse", "--score-file", str(workdir / "scores.txt"),
            "--input", str(workdir / "sents.txt")]
    gold = (workdir / "gold.txt").read_text(encoding="utf-8")
    out = tmp_path / "trees.txt"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(0o640)
    assert cli.main([*args, "--output", str(out), "--segs", os.devnull]) == 0
    assert out.read_text(encoding="utf-8") == gold
    assert out.stat().st_mode & 0o777 == 0o640
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
    assert sorted(os.listdir(tmp_path)) == ["trees.txt"]
    capsys.readouterr()
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == gold
    assert captured.err == "parsed 8 sentences\n"
    # a standard output that takes only text gets the text
    with contextlib.redirect_stdout(io.StringIO()) as text_only:
        assert cli.main(args) == 0
    assert text_only.getvalue() == gold


def test_parse_checkpoint_memory_is_flat_in_the_corpus_size(workdir, checkpoint,
                                                            tmp_path):
    # Each sentence is written before the next is read, so 120 more input
    # lines add nothing that stays: holding their trees took about 150 KB.
    sentences = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()

    def peak(count: int) -> int:
        sents = tmp_path / f"sents{count}.txt"
        sents.write_text("".join(sentences[k % len(sentences)] + "\n"
                                 for k in range(count)), encoding="utf-8")
        args = ["parse", "--checkpoint", str(checkpoint), "--input", str(sents),
                "--output", str(tmp_path / "trees.txt"),
                "--segs", str(tmp_path / "segs.txt"),
                "--char-trees", str(tmp_path / "chars.txt")]
        code, peak_bytes = traced_peak(lambda: cli.main(args))
        assert code == 0
        return peak_bytes

    peak(128)  # first calls fill lazy caches
    assert peak(128) - peak(8) < 16_000


@pytest.fixture(scope="module")
def mlp_checkpoint(workdir):
    path = workdir / "mlp.npz"
    vocab = build_vocab(to_char_tree(t) for t in load_corpus(workdir / "gold.txt"))
    head = MLPHead(1 << 8, len(vocab), hidden=4, dropout=0.0)
    Checkpoint("mlp", head.params(), vocab.labels, 1 << 8, 4, 0.0, 1, 0.0,
               0).save(path)
    return path


def _flip_in(member: str):
    """Damage: one byte of ``member``'s array data flipped."""
    def damage(data: bytes) -> bytes:
        # stored members: the .npy magic starts the member's data, and the
        # array's bytes follow a header of at most 128 bytes
        at = data.index(b"\x93NUMPY", data.index(member.encode())) + 200
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
    return damage


def _in_w_rows_header(old: bytes, new: bytes):
    """Damage: the first ``old`` in W_rows.npy's header replaced by ``new``."""
    def damage(data: bytes) -> bytes:
        at = data.index(old, data.index(b"\x93NUMPY", data.index(b"W_rows.npy")))
        return data[:at] + new + data[at + len(old):]
    return damage


def _npy_bytes(data: bytes) -> bytes:
    out = io.BytesIO()
    np.save(out, np.zeros(3))
    return out.getvalue()


@pytest.mark.parametrize("kind, drop, replace, damage, message", [
    ("mlp", "p_W2", {}, None, "no 'p_W2' array"),
    ("mlp", None, {"p_b1": np.zeros(1)}, None,
     r"'p_b1' has shape \(1,\), expected \(4,\)"),
    ("linear", "W_ids", {}, None, "no 'W_ids' array"),
    ("linear", None, {"W_ids": lambda ids: ids + 0.5}, None,
     "'W_ids' has dtype float64, expected integers"),
    ("linear", None, {"W_ids": lambda ids: ids[::-1]}, None,
     "'W_ids': keys must be strictly increasing ids below"),
    ("linear", None, {"labels": lambda labels: np.append(labels, labels[1])}, None,
     "'labels': duplicate labels in vocabulary"),
    ("mlp", None, {"labels": lambda labels: np.roll(labels, 1)}, None,
     "'labels': label id 0 must be the null label"),
    ("linear", None, {"feature_dim": np.array("x")}, None,
     "'feature_dim': invalid literal for int"),
    # scalars out of range, or that a cast would round
    ("linear", None, {"epoch": np.array(1.5)}, None,
     "'epoch': 1.5 is not an integer of at least 0"),
    ("mlp", None, {"mlp_hidden": np.array(4.5)}, None,
     "'mlp_hidden': 4.5 is not an integer of at least 1"),
    ("linear", None, {"mlp_hidden": np.array(-3)}, None,
     "'mlp_hidden': -3 is not an integer of at least 1"),
    ("mlp", None, {"feature_dim": np.array(0)}, None,
     "'feature_dim': 0 is not an integer of at least 1"),
    ("linear", None, {"decays": np.array(-1)}, None,
     "'decays': -1 is not an integer of at least 0"),
    ("linear", None, {"dropout": np.array(1.7)}, None,
     r"'dropout': 1.7 is not in \[0, 1\)$"),
    ("mlp", None, {"dropout": np.array(np.nan)}, None,
     r"'dropout': nan is not in \[0, 1\)$"),
    ("linear", None, {"best_dev_f1": np.array(np.inf)}, None,
     "'best_dev_f1': inf is not finite"),
    # a damaged file: the checkpoint's bytes changed, or other bytes
    ("linear", None, {}, lambda data: data[:4000],
     "cannot read the checkpoint: File is not a zip file"),
    ("linear", None, {}, _flip_in("W_rows.npy"),
     "cannot read checkpoint array 'W_rows': Bad CRC-32 for file 'W_rows.npy'"),
    # bytes cut from the middle: zipfile seeks to a negative offset
    ("linear", None, {}, lambda data: data[:193] + data[244:],
     r"cannot read checkpoint array 'scorer_kind': \[Errno 22\] Invalid argument"),
    ("mlp", None, {}, lambda data: data[:193] + data[244:],
     r"cannot read checkpoint array 'scorer_kind': \[Errno 22\] Invalid argument"),
    ("linear", None, {}, _in_w_rows_header(b"),", b" ,"),  # the shape left open
     "cannot read checkpoint array 'W_rows': .*EOF in multi-line statement"),
    ("linear", None, {}, _in_w_rows_header(b"'<f8'", b"',f8'"),
     "cannot read checkpoint array 'W_rows': invalid syntax"),
    ("linear", None, {}, lambda data: b"PK\x03\x04garbage",
     "cannot read the checkpoint: File is not a zip file"),
    ("linear", None, {}, lambda data: "我们今天去公园\n".encode("utf-8"),
     "cannot read the checkpoint: not an .npz archive$"),
    ("linear", None, {}, lambda data: b"", "cannot read the checkpoint: not an .npz archive$"),
    ("linear", None, {}, _npy_bytes, "cannot read the checkpoint: not an .npz archive"),
], ids=["mlp-without-W2", "mlp-b1-of-shape-1", "linear-without-W_ids",
        "linear-float-W_ids", "linear-reversed-W_ids", "linear-repeated-label",
        "mlp-labels-not-led-by-null", "linear-feature_dim-not-a-number",
        "linear-epoch-1.5", "mlp-mlp_hidden-4.5", "linear-mlp_hidden-negative",
        "mlp-feature_dim-0", "linear-decays-negative", "linear-dropout-1.7",
        "mlp-dropout-nan", "linear-best_dev_f1-infinite",
        "cut-at-4000-bytes", "flipped-byte-in-W_rows",
        "linear-bytes-cut-from-the-middle", "mlp-bytes-cut-from-the-middle",
        "unclosed-npy-header", "npy-header-with-a-dtype-that-does-not-parse",
        "zip-magic-then-garbage", "plain-text", "empty",
        "npy-array"])
def test_parse_rejects_malformed_checkpoint(workdir, checkpoint, mlp_checkpoint,
                                            tmp_path, capsys, kind, drop, replace,
                                            damage, message):
    source = mlp_checkpoint if kind == "mlp" else checkpoint
    bad = tmp_path / "bad.npz"
    if damage is not None:
        bad.write_bytes(damage(source.read_bytes()))
    else:
        with np.load(source) as data:
            arrays = {name: data[name] for name in data.files if name != drop}
        # a callable replacement derives the bad array from the good one
        for name, value in replace.items():
            arrays[name] = value(arrays[name]) if callable(value) else value
        np.savez(bad, **arrays)
    args = ("--input", str(workdir / "sents.txt"), "--output", str(tmp_path / "o.txt"))
    r = run_cli("parse", "--checkpoint", str(source), *args)
    assert r.returncode == 0, r.stderr
    r = run_cli("parse", "--checkpoint", str(bad), *args)
    assert r.returncode == 2
    assert re.search(f"charspan: error: {re.escape(str(bad))}: .*{message}", r.stderr), r.stderr
    assert "Traceback" not in r.stderr
    # bench reads checkpoints with the same loader
    capsys.readouterr()
    assert cli.main(["bench", str(workdir / "gold.txt"), "--checkpoint", str(bad)]) == 2
    assert re.search(f"charspan: error: {re.escape(str(bad))}: .*{message}",
                     capsys.readouterr().err)


def _nan_at_first(array):
    array = array.copy()
    array.flat[0] = np.nan
    return array


@pytest.mark.parametrize("kind, name, bad, message", [
    ("linear", "W_rows", lambda rows: np.full(rows.shape, "a"),
     "'W_rows' has dtype <U1, expected floats"),
    ("linear", "W_rows", _nan_at_first,
     r"'W_rows' has the non-finite value nan at \(0, 0\)"),
    ("mlp", "p_W1", lambda w1: w1.astype(np.int64),
     "'p_W1' has dtype int64, expected floats"),
    ("mlp", "p_b2", lambda b2: np.where(np.arange(len(b2)) == 2, -np.inf, b2),
     r"'p_b2' has the non-finite value -inf at \(2,\)"),
], ids=["linear-string-W_rows", "linear-nan-W_rows", "mlp-integer-W1",
        "mlp-infinite-b2"])
def test_parse_rejects_checkpoint_weights_that_are_not_finite_floats(
        workdir, checkpoint, mlp_checkpoint, tmp_path, kind, name, bad, message):
    with np.load(mlp_checkpoint if kind == "mlp" else checkpoint) as data:
        arrays = {key: data[key] for key in data.files}
    arrays[name] = bad(arrays[name])
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    r = run_cli("parse", "--checkpoint", str(path), "--input",
                str(workdir / "sents.txt"), "--output", str(tmp_path / "o.txt"))
    assert r.returncode == 2
    assert re.search(f"charspan: error: {re.escape(str(path))}: .*{message}", r.stderr), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_parse_checkpoint_holds_one_copy_of_the_weights(tmp_path, kind):
    # The scorer adopts the arrays np.load returns, so a parse process
    # holds the weights once: two copies would take 2x, and the scores of
    # two short sentences add little.
    num_labels = 32
    labels = [NULL_LABEL, "@1", "@2"] + [f"X{k}" for k in range(num_labels - 3)]
    rng = np.random.default_rng(14)
    if kind == "linear":
        dim, hidden = 1 << 20, 250
        keys = np.sort(rng.choice(dim, size=20_000, replace=False))
        params = {"keys": keys, "rows": rng.normal(size=(len(keys), num_labels))}
    else:
        dim, hidden = 1 << 14, 32
        params = MLPHead(dim, num_labels, hidden, rng=rng).params()
    weights = sum(array.nbytes for array in params.values())
    path = tmp_path / "model.npz"
    Checkpoint(kind, params, labels, dim, hidden, 0.0, 1, 0.0, 0).save(path)
    sents = tmp_path / "sents.txt"
    sents.write_text("我们今天去公园散步\n天气很好\n", encoding="utf-8")
    args = ["parse", "--checkpoint", str(path), "--input", str(sents),
            "--output", str(tmp_path / "trees.txt")]
    assert cli.main(args) == 0  # first calls fill lazy caches
    code, peak = traced_peak(lambda: cli.main(args))
    assert code == 0
    assert peak < 1.5 * weights, (peak, weights)


def test_eval_report_file(workdir, tmp_path):
    report = tmp_path / "report.txt"
    r = run_cli("eval", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                "--report-file", str(report))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("metric")
    line = report.read_text(encoding="utf-8").strip()
    assert line.startswith("seg_f1=1.0 par_f1=1.0")


def test_eval_yield_mismatch_is_data_error(workdir, tmp_path, capsys):
    # the error names PRED, GOLD and the 1-based tree of PRED
    gold = workdir / "gold.txt"
    trees = list(load_corpus(gold))
    other = tmp_path / "other.txt"
    save_corpus(trees[:2] + list(synthesize_corpus(1, seed=77)) + trees[3:], other)
    assert cli.main(["eval", str(gold), str(other)]) == 2
    assert capsys.readouterr().err == (f"charspan: error: {other}: tree 3: its "
                                       f"characters differ from tree 3 of {gold}\n")
    save_corpus(trees[:5], other)
    assert cli.main(["eval", str(gold), str(other)]) == 2
    assert capsys.readouterr().err == (f"charspan: error: {other}: 5 trees, but "
                                       f"{gold} has 8\n")


def test_bench_random_scores(workdir):
    r = run_cli("bench", str(workdir / "gold.txt"), "--repeats", "2")
    assert r.returncode == 0, r.stderr
    assert "repeat=1 time=" in r.stderr
    assert "repeat=2 time=" in r.stderr
    summary = r.stdout.strip().splitlines()[-1]
    assert summary.startswith("sentences=8 repeats=2")
    assert "sents_per_sec_mean=" in summary


def test_bench_memory_stays_at_one_sentence(tmp_path):
    # Each sentence's random scores are made just before its decode and
    # dropped after it: holding every sentence's (S, L) array would take
    # about 14x the largest one on these 20 sentences.
    corpus = synthesize_corpus(20, seed=3, median_chars=60, min_chars=20, max_chars=80)
    save_corpus(corpus, tmp_path / "bench.txt")
    num_labels = len(build_vocab(to_char_tree(t) for t in corpus))
    n = max(len("".join(t.leaves())) for t in corpus)
    largest = n * (n + 1) // 2 * num_labels * 8
    args = ["bench", str(tmp_path / "bench.txt"), "--repeats", "2"]
    assert cli.main(args) == 0  # first calls fill lazy caches
    code, peak = traced_peak(lambda: cli.main(args))
    assert code == 0
    assert peak < 3 * largest, (peak, largest)


def test_bench_include_scoring_needs_checkpoint(workdir):
    r = run_cli("bench", str(workdir / "gold.txt"), "--include-scoring")
    assert r.returncode == 1
    assert "--include-scoring" in r.stderr


@pytest.mark.parametrize("flags, message", [
    (("--repeats", "0"), "--repeats must be at least 1"),
    (("--repeats", "-2"), "--repeats must be at least 1"),
    (("--seed", "-1"), "--seed must be non-negative"),
])
def test_bench_rejects_bad_arguments_before_any_work(workdir, capsys, flags, message):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bench", str(workdir / "gold.txt"), *flags])
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: charspan")
    assert err.endswith(f"charspan: error: {message}\n")
    assert "repeat=" not in err


def test_threads_is_not_an_option(workdir, checkpoint, tmp_path):
    out = tmp_path / "trees.txt"
    for args in (["parse", "--checkpoint", str(checkpoint),
                  "--input", str(workdir / "sents.txt"), "--output", str(out)],
                 ["bench", str(workdir / "gold.txt"), "--repeats", "1"]):
        r = run_cli(*args, "--threads", "2")
        assert r.returncode == 1
        assert r.stderr.startswith("usage: charspan")
        assert "unrecognized arguments: --threads 2" in r.stderr
        assert r.stdout == ""
    assert os.listdir(tmp_path) == []


def test_every_flag_in_the_readme_is_an_option():
    # pip's flag is the one the README may name that charspan does not have
    parser = cli.build_parser()
    options = {"--no-build-isolation"}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for sub_action in sub._actions:
                    options.update(sub_action.option_strings)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme.read_text(encoding="utf-8")))
    assert flags
    assert sorted(flags - options) == []


def test_readme_train_keys_and_train_flags_are_the_train_config_fields():
    keys = [field.name for field in dataclasses.fields(trainer.TrainConfig)]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Train config**", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE) == keys
    train = next(action for action in cli.build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)).choices["train"]
    flags = [option for action in train._actions for option in action.option_strings]
    assert flags == ["-h", "--help", "--config"] + ["--" + key.replace("_", "-")
                                                    for key in keys]


def test_bench_with_checkpoint_scoring(workdir, checkpoint):
    r = run_cli("bench", str(workdir / "gold.txt"), "--repeats", "1",
                "--checkpoint", str(checkpoint), "--include-scoring")
    assert r.returncode == 0, r.stderr
    assert "include_scoring=true" in r.stdout


def test_bench_scores_each_sentence_once_per_decode(workdir, checkpoint, monkeypatch,
                                                    capsys):
    # --include-scoring scores a sentence inside each timed decode;
    # without it, a sentence is scored just before each timed decode.
    # Neither keeps a score array from one sentence to the next.  A scorer
    # gathers a sentence's rows once per scoring, whether it is scored
    # whole (score) or in chunks.
    start_blocks = LinearScorer.start_blocks
    scored = []

    def counted(self, rep):
        scored.append(rep.by_start.shape[1])
        return start_blocks(self, rep)

    monkeypatch.setattr(LinearScorer, "start_blocks", counted)
    bench = ["bench", str(workdir / "gold.txt"), "--repeats", "2",
             "--checkpoint", str(checkpoint)]
    lengths = [len("".join(t.leaves())) for t in load_corpus(workdir / "gold.txt")]
    for flags in (["--include-scoring"], []):
        scored.clear()
        assert cli.main([*bench, *flags]) == 0
        assert scored == lengths[:1] + lengths * 2  # the warm-up, then two repeats
    assert "include_scoring=false" in capsys.readouterr().out


def test_missing_file_is_data_error(tmp_path):
    r = run_cli("transform", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt"))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr
