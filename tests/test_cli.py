"""End-to-end command-line behavior.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from charspan import cli
from charspan.chartree import gold_span_labels, to_char_tree
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
    code = cli.main(["parse", "--score-file", str(workdir / "scores.txt"),
                     "--input", str(sents), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"charspan: error: score file has 8 "
                                       f"sentences, input has {keep + extra}\n")
    assert not out.exists()


def test_parse_reports_the_first_fault_whatever_the_threads(workdir, tmp_path,
                                                            capsys):
    # sentence 1 has the wrong length and the input ends after sentence 2:
    # with threads, the count error is found while sentence 1 is still in
    # the pool, and its error must still come first
    lines = (workdir / "sents.txt").read_text(encoding="utf-8").splitlines()
    sents = tmp_path / "sents.txt"
    sents.write_text("\n".join([lines[0], lines[1] + "嗯", lines[2]]) + "\n",
                     encoding="utf-8")
    for threads in ("1", "2", "3"):
        code = cli.main(["parse", "--score-file", str(workdir / "scores.txt"),
                         "--input", str(sents), "--output", str(tmp_path / "t.txt"),
                         "--threads", threads])
        assert code == 2
        assert capsys.readouterr().err == (
            f"charspan: error: sentence 1: score file says n={len(lines[1])}, "
            f"input line has {len(lines[1]) + 1} characters\n"), threads
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
    for text, message in [("optimizer = adam\n", "unknown key"),
                          ("margin_mode = bogus\n", "unknown margin mode 'bogus'"),
                          ("loss_spans = some\n", "unknown span set 'some'")]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        r = run_cli("train", str(workdir / "gold.txt"), str(workdir / "gold.txt"),
                    str(tmp_path / "m.npz"), "--config", str(cfg))
        assert r.returncode == 2
        assert message in r.stderr
        assert "epoch=" not in r.stderr


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
        outputs = {}
        for threads in ("1", "2", "3"):
            paths = [tmp_path / f"{name}_{threads}_{kind}.txt"
                     for kind in ("trees", "segs", "chars")]
            r = run_cli("parse", *source, "--input", str(workdir / "sents.txt"),
                        "--output", str(paths[0]), "--segs", str(paths[1]),
                        "--char-trees", str(paths[2]), "--threads", threads)
            assert r.returncode == 0, r.stderr
            outputs[threads] = [path.read_bytes() for path in paths]
        assert outputs["2"] == outputs["1"] and outputs["3"] == outputs["1"]
        assert all(len(out.splitlines()) == 8 for out in outputs["1"])


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


@pytest.mark.parametrize("kind, drop, replace, message", [
    ("mlp", "p_W2", {}, "no 'p_W2' array"),
    ("mlp", None, {"p_b1": np.zeros(1)}, r"'p_b1' has shape \(1,\), expected \(4,\)"),
    ("linear", "W_ids", {}, "no 'W_ids' array"),
    ("linear", None, {"W_ids": lambda ids: ids + 0.5},
     "'W_ids' has dtype float64, expected integers"),
    ("linear", None, {"W_ids": lambda ids: ids[::-1]},
     "'W_ids': keys must be strictly increasing ids below"),
], ids=["mlp-without-W2", "mlp-b1-of-shape-1", "linear-without-W_ids",
        "linear-float-W_ids", "linear-reversed-W_ids"])
def test_parse_rejects_malformed_checkpoint(workdir, checkpoint, mlp_checkpoint,
                                            tmp_path, kind, drop, replace,
                                            message):
    source = mlp_checkpoint if kind == "mlp" else checkpoint
    with np.load(source) as data:
        arrays = {name: data[name] for name in data.files if name != drop}
    # a callable replacement derives the bad array from the good one
    for name, value in replace.items():
        arrays[name] = value(arrays[name]) if callable(value) else value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    args = ("--input", str(workdir / "sents.txt"), "--output", str(tmp_path / "o.txt"))
    r = run_cli("parse", "--checkpoint", str(source), *args)
    assert r.returncode == 0, r.stderr
    r = run_cli("parse", "--checkpoint", str(bad), *args)
    assert r.returncode == 2
    assert re.search(f"charspan: error: {re.escape(str(bad))}: .*{message}", r.stderr), r.stderr
    assert "Traceback" not in r.stderr


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


def test_bench_scores_each_sentence_once_per_decode(workdir, checkpoint, monkeypatch,
                                                    capsys):
    # --include-scoring scores a sentence inside each timed decode and
    # keeps no score arrays; without it, each sentence is scored once, up
    # front.  A scorer gathers a sentence's rows once per scoring, whether
    # it is scored whole (score) or in chunks.
    start_blocks = LinearScorer.start_blocks
    scored = []

    def counted(self, rep):
        scored.append(rep.positions.by_start.shape[1])
        return start_blocks(self, rep)

    monkeypatch.setattr(LinearScorer, "start_blocks", counted)
    bench = ["bench", str(workdir / "gold.txt"), "--repeats", "2",
             "--checkpoint", str(checkpoint)]
    lengths = [len("".join(t.leaves())) for t in load_corpus(workdir / "gold.txt")]
    assert cli.main([*bench, "--include-scoring"]) == 0
    assert scored == lengths[:1] + lengths * 2  # the warm-up, then two repeats
    scored.clear()
    assert cli.main(bench) == 0
    assert scored == lengths
    assert "include_scoring=false" in capsys.readouterr().out


def test_missing_file_is_data_error(tmp_path):
    r = run_cli("transform", str(tmp_path / "nope.txt"), str(tmp_path / "o.txt"))
    assert r.returncode == 2
    assert "charspan: error:" in r.stderr
