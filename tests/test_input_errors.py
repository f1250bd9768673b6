"""A seeded mutation sweep over every reader of the command line.

One small valid input per reader is damaged in five ways: cut short at a
byte, one bit flipped, a 0xff byte inserted, a line dropped and a line
repeated.  Each mutant goes through ``cli.main`` in-process, and must exit
0, or exit 2 with one line ``charspan: error: PATH: ...`` naming the
mutant.  In a format of lines the message also gives ``line K:``, and for
bytes that are not UTF-8, K is the line of the first bad byte.
"""

import contextlib
import io
import random
import re

import pytest

from charspan import cli
from charspan.chartree import gold_span_labels, save_char_trees, to_char_tree
from charspan.scoring import build_vocab, oracle_scores, write_scores
from charspan.synthesis import synthesize_corpus
from charspan.treebank import save_corpus

MUTANTS = 100  # per input
TRAIN = ["--max-epochs", "1", "--label-loss-epochs", "1", "--batch-size", "4",
         "--learning-rate", "0.5"]

# errors of a line format that are about a whole tree or a whole file
LINELESS = re.compile(r"\d+ trees, but .* has \d+|tree \d+: its characters differ "
                      r"from tree \d+ of .*|missing header: empty score file")


def _run(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep")
    corpus = synthesize_corpus(3, seed=5, median_chars=6.0, max_chars=9)
    save_corpus(corpus, d / "gold.txt")
    cts = [to_char_tree(t) for t in corpus]
    save_char_trees(cts, d / "chars.txt")
    vocab = build_vocab(cts)
    with io.open(d / "scores.txt", "w", encoding="utf-8") as f:
        for k, ct in enumerate(cts):
            write_scores(oracle_scores(gold_span_labels(ct), vocab), vocab, f, str(k))
    (d / "sents.txt").write_text("".join(ct.sentence() + "\n" for ct in cts),
                                 encoding="utf-8")
    (d / "train.cfg").write_text(
        "# a small run\nscorer = linear\nlearning_rate = 0.5\nbatch_size = 4\n"
        "seed = 3\nfeature_dim = 4096\nmargin_mode = hamming\ndropout = 0.25\n",
        encoding="utf-8")
    gold = str(d / "gold.txt")
    assert _run(["train", gold, gold, str(d / "linear.npz"), *TRAIN])[0] == 0
    assert _run(["train", gold, gold, str(d / "mlp.npz"), *TRAIN, "--scorer", "mlp",
                 "--mlp-hidden", "4", "--feature-dim", "64"])[0] == 0
    return d


def _commands(d, mutant):
    """The commands that read the input of each name, given as ``mutant``."""
    out = str(d / "out")
    parse = ["parse", "--input", str(d / "sents.txt"), "--output", out, "--checkpoint"]
    return {
        "gold.txt": [["transform", mutant, out], ["eval", str(d / "gold.txt"), mutant]],
        "chars.txt": [["detransform", mutant, out]],
        "sents.txt": [["parse", "--checkpoint", str(d / "linear.npz"),
                       "--input", mutant, "--output", out]],
        "scores.txt": [["parse", "--score-file", mutant, "--output", out]],
        "train.cfg": [["train", str(d / "gold.txt"), str(d / "gold.txt"), out,
                       "--config", mutant, *TRAIN]],
        "linear.npz": [[*parse, mutant]],
        "mlp.npz": [[*parse, mutant]],
    }


def _mutants(data: bytes, rng: random.Random, archive: bool):
    lines = data.split(b"\n")
    # in an archive, most flips go to the zip and .npy headers and to the
    # central directory, not to the array bytes that the CRC guards
    headers = []
    if archive:
        headers = [k for m in re.finditer(rb"PK\x03\x04", data)
                   for k in range(m.start(), min(len(data), m.start() + 160))]
        headers += range(data.rfind(b"PK\x01\x02"), len(data))
    for _ in range(MUTANTS):
        kind = rng.choice(["cut", "flip", "0xff", "drop", "repeat"])
        if kind == "cut":
            yield data[:rng.randrange(len(data))]
        elif kind == "flip":
            k = rng.choice(headers) if headers and rng.random() < 0.7 else rng.randrange(len(data))
            flipped = bytearray(data)
            flipped[k] ^= 1 << rng.randrange(8)
            yield bytes(flipped)
        elif kind == "0xff":
            k = rng.randrange(len(data) + 1)
            yield data[:k] + b"\xff" + data[k:]
        elif kind == "drop":
            k = rng.randrange(len(lines))
            yield b"\n".join(lines[:k] + lines[k + 1:])
        else:
            k = rng.randrange(len(lines))
            yield b"\n".join(lines[:k + 1] + lines[k:])


def _first_bad_line(data: bytes):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return data.count(b"\n", 0, e.start) + 1
    return None


@pytest.mark.parametrize("name", ["gold.txt", "chars.txt", "sents.txt", "scores.txt",
                                  "train.cfg", "linear.npz", "mlp.npz"])
def test_every_mutant_exits_0_or_names_its_file(inputs, tmp_path, name):
    rng = random.Random(f"2026-{name}")
    archive = name.endswith(".npz")
    mutant = tmp_path / ("bad.npz" if archive else "bad.txt")
    errors = 0
    for data in _mutants((inputs / name).read_bytes(), rng, archive):
        mutant.write_bytes(data)
        for args in _commands(inputs, str(mutant))[name]:
            code, err = _run(args)
            assert code in (0, 2), (args, data, err)
            if code == 0:
                continue
            errors += 1
            where = f"charspan: error: {mutant}: "
            assert err.startswith(where) and err.count("\n") == 1, (args, data, err)
            message = err[len(where):-1]
            if archive:
                continue
            bad_line = _first_bad_line(data)
            if bad_line is not None:
                assert message.startswith(f"line {bad_line}: 'utf-8' codec can't "
                                          f"decode "), (args, data, err)
            else:
                assert re.match(r"line \d+: ", message) or LINELESS.fullmatch(message), (
                    args, data, err)
    assert errors  # the sweep reaches the errors it checks
