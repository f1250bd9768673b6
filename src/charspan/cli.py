"""Command-line pipelines.

Subcommands: transform (word trees -> char trees), detransform (inverse,
plus segmentation output), train, parse (checkpoint or score file ->
trees), eval (joint seg/parse report), bench (decode throughput).

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error.
Logs go to standard error; data goes to files or standard output.  Each
reader raises its data errors as ``treebank.DataError``, which ``main``
prints as ``charspan: error: PATH: line K: message`` (no line outside a
format of lines); a file that cannot be opened prints its OSError.

The ``train`` flags are made from ``trainer.SETTINGS``, one per
``TrainConfig`` field, with that field's cast and allowed values; a flag
given beats the same key in the ``--config`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile
import time
from collections import deque
from dataclasses import replace

import numpy as np

from .chartree import from_char_tree, load_char_trees, save_char_trees, to_char_tree
from .decoder import DecodeConfig, cky_decode, decode_sentence
from .metrics import joint_report
from .scoring import SpanScores, build_vocab, read_score_file, score_spans
from .trainer import SETTINGS, Checkpoint, TrainConfig, load_train_config, train
from .treebank import (BAD_LEAF_CHARS, DataError, decode_text, load_corpus,
                       save_corpus, serialize_bracketed)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_sentences(path: str):
    """The non-blank lines of ``path``, stripped, each after its 1-based
    line number, read as they are asked for.  A line that is not UTF-8 or
    that holds a character no token can hold (``BAD_LEAF_CHARS``: a space,
    a tab, a CR or a bracket) raises DataError naming the file and the line."""
    with io.open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            sentence = decode_text(raw, path, lineno).strip()
            if not sentence:
                continue
            if not BAD_LEAF_CHARS.isdisjoint(sentence):
                bad = next(c for c in sentence if c in BAD_LEAF_CHARS)
                raise DataError(f"{bad!r} cannot be a character of a sentence",
                                path, lineno)
            yield lineno, sentence


def cmd_transform(args) -> int:
    corpus = load_corpus(args.input, strip_tags=args.strip_tags)
    char_trees = [to_char_tree(t) for t in corpus]
    save_char_trees(char_trees, args.output)
    print(f"transformed {len(char_trees)} trees -> {args.output}", file=sys.stderr)
    return 0


def cmd_detransform(args) -> int:
    char_trees = load_char_trees(args.input)
    trees = []
    segs = []
    for ct in char_trees:
        tree, seg = from_char_tree(ct)
        trees.append(tree)
        segs.append(seg)
    save_corpus(trees, args.output)
    if args.segs:
        with io.open(args.segs, "w", encoding="utf-8") as f:
            for seg in segs:
                f.write(" ".join(seg.words) + "\n")
    print(f"recovered {len(trees)} trees -> {args.output}", file=sys.stderr)
    return 0


def _train_config_from_args(args) -> TrainConfig:
    config = load_train_config(args.config) if args.config else TrainConfig()
    return replace(config, **{key: getattr(args, key) for key in SETTINGS
                              if getattr(args, key) is not None})


class _EpochLog(list):
    """Training history that logs each epoch's line as the epoch ends."""

    def append(self, rec: dict) -> None:
        super().append(rec)
        print("epoch={epoch} loss_kind={loss_kind} loss={loss:.6f} lr={lr:.6g} "
              "decays={decays} dev_seg_f1={dev_seg_f1:.4f} "
              "dev_parse_f1={dev_parse_f1:.4f}".format(**rec), file=sys.stderr)


def cmd_train(args) -> int:
    config = _train_config_from_args(args)
    train_corpus = load_corpus(args.train)
    dev_corpus = load_corpus(args.dev)
    checkpoint = train(train_corpus, dev_corpus, config, history=_EpochLog())
    # The checkpoint is saved to a temporary file that replaces the target
    # only when it is complete, so a failing save leaves no output and no
    # temporary file, and an existing checkpoint keeps its bytes.
    temp = _staged(args.output)
    try:
        checkpoint.save(temp)
        _commit(temp, args.output, binary=True)
    finally:
        if os.path.exists(temp):
            os.remove(temp)
    print(f"saved checkpoint (best epoch {checkpoint.epoch}, "
          f"dev parse F1 {checkpoint.best_dev_f1:.4f}) -> {args.output}",
          file=sys.stderr)
    return 0


def _decode_flags(args) -> DecodeConfig:
    return DecodeConfig(constrain_char_labels=args.constrain_char_labels,
                        require_nonnull_root=args.require_nonnull_root)


def _paired(blocks, sentences, args):
    """Each score block with its input line's number and sentence, or with
    (None, None) when there is no input.  When the counts differ, the rest
    of the longer source is read, so the error, which names the score file,
    gives both full counts."""
    k = 0
    for block in blocks:
        line = (None, None)
        if sentences is not None:
            line = next(sentences, None)
            if line is None:
                del block
                total = k + 1
                while next(blocks, None) is not None:
                    total += 1
                raise DataError(f"{total} sentences, but {args.input} has {k}",
                                args.score_file)
        yield block, line
        del block  # not held while the next block is read
        k += 1
    if sentences is not None:
        total = k
        while next(sentences, None) is not None:
            total += 1
        if total != k:
            raise DataError(f"{k} sentences, but {args.input} has {total}",
                            args.score_file)


def _parsed_char_trees(args):
    """The decoded char tree of each input sentence, in input order, each
    made as it is asked for."""
    decode_cfg = _decode_flags(args)
    if args.checkpoint:
        checkpoint = Checkpoint.load(args.checkpoint)
        vocab = checkpoint.vocab
        scorer = checkpoint.build_scorer()

        def run(line: tuple[int, str]):
            ct, _ = decode_sentence(scorer, line[1], vocab, decode_cfg)
            return ct

        yield from map(run, _read_sentences(args.input))
        return

    def run_block(item):
        (sid, scores, vocab), (lineno, chars) = item
        if chars is not None and len(chars) != scores.n:
            raise DataError(f"{len(chars)} characters, but sentence {sid} of "
                            f"{args.score_file} has n={scores.n}", args.input, lineno)
        ct, _ = cky_decode(scores, vocab, decode_cfg, chars=chars)
        return ct

    sentences = _read_sentences(args.input) if args.input else None
    # each block is decoded and dropped before the next one is read
    with io.open(args.score_file, "rb") as f:
        yield from map(run_block, _paired(read_score_file(f), sentences, args))


def _staged(target: str) -> str:
    """A new empty temporary file for ``target``'s contents: next to the
    file it names, or in the temporary directory when ``target`` is "-"
    (standard output) or not a regular file (a FIFO, /dev/null)."""
    if _replaceable(target):
        directory, name = os.path.split(os.path.realpath(target))
    else:
        directory, name = None, "charspan"
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as e:
        raise OSError(e.errno, e.strerror, target) from None
    os.close(fd)
    return temp


def _replaceable(target: str) -> bool:
    return target != "-" and (os.path.isfile(target) or not os.path.exists(target))


def _commit(temp: str, target: str, binary: bool = False) -> None:
    """Move the finished ``temp`` over ``target``, or copy it there: its
    UTF-8 text, or its bytes when ``binary``."""
    if _replaceable(target):
        target = os.path.realpath(target)
        if os.path.exists(target):
            mode = os.stat(target).st_mode & 0o7777
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask  # what creating the file would give
        os.chmod(temp, mode)
        os.replace(temp, target)
        return
    kind, encoding = ("b", None) if binary else ("", "utf-8")
    with io.open(temp, "r" + kind, encoding=encoding) as src:
        if target == "-":
            if binary:
                sys.stdout.flush()  # text printed before goes first
                shutil.copyfileobj(src, sys.stdout.buffer)
                sys.stdout.buffer.flush()
            else:
                shutil.copyfileobj(src, sys.stdout)
        else:
            with io.open(target, "w" + kind, encoding=encoding) as dst:
                shutil.copyfileobj(src, dst)
    os.remove(temp)


def cmd_parse(args) -> int:
    # One sentence is in flight at a time: each is decoded, detransformed
    # and written before the next is read.  The outputs are written to
    # temporary files that replace the targets after the last sentence, so
    # a failing run leaves no output file and no temporary one.
    targets = [args.output, args.char_trees, args.segs]
    temps = []
    try:
        for target in targets:
            temps.append(_staged(target) if target else None)
        trees_temp, chars_temp, segs_temp = temps
        count = 0
        with contextlib.ExitStack() as files:
            trees_out = files.enter_context(io.open(trees_temp, "w", encoding="utf-8"))
            segs_out = segs_temp and files.enter_context(
                io.open(segs_temp, "w", encoding="utf-8"))

            def written(ct):
                nonlocal count
                tree, seg = from_char_tree(ct)
                trees_out.write(serialize_bracketed(tree) + "\n")
                if segs_out:
                    segs_out.write(" ".join(seg.words) + "\n")
                count += 1
                return ct

            char_trees = map(written, _parsed_char_trees(args))
            if chars_temp:
                save_char_trees(char_trees, chars_temp)
            else:
                deque(char_trees, maxlen=0)
        for temp, target in zip(temps, targets):
            if temp:
                _commit(temp, target)
    finally:
        for temp in temps:
            if temp and os.path.exists(temp):
                os.remove(temp)
    print(f"parsed {count} sentences", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    gold = load_corpus(args.gold)
    pred = load_corpus(args.pred)
    if len(pred) != len(gold):
        raise DataError(f"{len(pred)} trees, but {args.gold} has {len(gold)}", args.pred)
    for k, (g, p) in enumerate(zip(gold, pred), start=1):
        if "".join(g.leaves()) != "".join(p.leaves()):
            raise DataError(f"tree {k}: its characters differ from tree {k} of "
                            f"{args.gold}", args.pred)
    report = joint_report(list(gold), list(pred))
    print(report)
    if args.report_file:
        with io.open(args.report_file, "w", encoding="utf-8") as f:
            f.write(report.splitlines()[-1] + "\n")
    return 0


def cmd_bench(args) -> int:
    trees = list(load_corpus(args.corpus))
    if not trees:
        raise DataError("no trees to bench", args.corpus)
    sentences = ["".join(t.leaves()) for t in trees]
    decode_cfg = _decode_flags(args)

    if args.checkpoint:
        checkpoint = Checkpoint.load(args.checkpoint)
        vocab = checkpoint.vocab
        scorer = checkpoint.build_scorer()
    else:
        vocab = build_vocab(to_char_tree(t) for t in trees)
        scorer = None

    def make_scores(index: int, sentence: str) -> SpanScores:
        if scorer is not None:
            return score_spans(scorer, sentence, vocab)
        rng = np.random.default_rng((args.seed, index))
        n = len(sentence)
        values = rng.uniform(-1.0, 1.0, (n * (n + 1) // 2, len(vocab)))
        return SpanScores(n, len(vocab), values, validate=False)

    def prepared(index: int, sentence: str):
        """The timed decode of one sentence.  Its scores are made here, just
        before it and the same at every repeat, and go with it, so no two
        sentences' scores are held at once; with --include-scoring the
        timed decode scores its sentence itself."""
        if args.include_scoring:
            return lambda: decode_sentence(scorer, sentence, vocab, decode_cfg)
        scores = make_scores(index, sentence)
        return lambda: cky_decode(scores, vocab, decode_cfg, chars=sentence)

    prepared(0, sentences[0])()  # warm up (imports, allocator)
    rates = []
    for rep in range(args.repeats):
        dt = 0.0
        for index, sentence in enumerate(sentences):
            decode = prepared(index, sentence)
            t0 = time.perf_counter()
            decode()
            dt += time.perf_counter() - t0
            del decode  # the scores go before the next sentence's are made
        rate = len(sentences) / dt
        rates.append(rate)
        print(f"repeat={rep + 1} time={dt:.4f}s rate={rate:.1f} sents/sec",
              file=sys.stderr)
    mean = float(np.mean(rates))
    std = float(np.std(rates))
    print(f"sentences={len(sentences)} repeats={args.repeats} "
          f"include_scoring={str(bool(args.include_scoring)).lower()} "
          f"sents_per_sec_mean={mean:.2f} sents_per_sec_std={std:.2f}")
    return 0


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--constrain-char-labels", action=argparse.BooleanOptionalAction,
                   default=True, help="keep @1-final labels on exactly length-1 spans")
    p.add_argument("--require-nonnull-root", action=argparse.BooleanOptionalAction,
                   default=True, help="forbid the null label on the whole-sentence span")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="charspan",
                     description="Joint Chinese segmentation and parsing by "
                                 "character-level span decoding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="word-level trees to character-level trees")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--strip-tags", action=argparse.BooleanOptionalAction, default=True,
                   help="drop -/= function suffixes from labels at load")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("detransform", help="character-level trees back to word level")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--segs", help="also write one segmented sentence per line")
    p.set_defaults(func=cmd_detransform)

    p = sub.add_parser("train", help="train a span scorer")
    p.add_argument("train")
    p.add_argument("dev")
    p.add_argument("output", help="checkpoint path (.npz)")
    p.add_argument("--config", help="key = value config file")
    for key, (cast, choices) in SETTINGS.items():  # a flag beats the file
        p.add_argument("--" + key.replace("_", "-"), type=cast, choices=choices)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="decode sentences to trees")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint", help="trained scorer checkpoint")
    src.add_argument("--score-file", help="externally computed span scores")
    p.add_argument("--input", help="sentences, one per line (required with "
                                   "--checkpoint; optional with --score-file)")
    p.add_argument("--output", default="-", help="word-level trees ('-' = stdout)")
    p.add_argument("--segs", help="also write segmented sentences")
    p.add_argument("--char-trees", help="also write raw character-level trees")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="joint segmentation/parse F1 report")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--report-file", help="also write the key=value line here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="decode throughput benchmark")
    p.add_argument("corpus", help="word-level trees; sentences are their yields")
    p.add_argument("--checkpoint", help="score with a trained scorer (default: "
                                        "seeded random scores)")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--include-scoring", action="store_true",
                   help="time scoring too, not just decoding")
    p.add_argument("--seed", type=int, default=0)
    _add_decode_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "parse" and args.checkpoint and not args.input:
        parser.error("--input is required with --checkpoint")
    if getattr(args, "command", None) == "bench":
        if args.include_scoring and not args.checkpoint:
            parser.error("--include-scoring requires --checkpoint")
        if args.repeats < 1:
            parser.error("--repeats must be at least 1")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as e:  # DataError is a ValueError
        print(f"charspan: error: {e}", file=sys.stderr)
        return 2
