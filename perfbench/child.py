"""One workload step, run in a fresh process started by run.py.

    python3 perfbench/child.py ROLE --inputs DIR --out DIR --result FILE
        [--seed N] [--seconds N] [--trace-out FILE] [-- charspan CLI args]

Roles:
  parse         ``charspan parse`` with the CLI arguments after ``--``
  write-scores  write the parse-scorefile score files with ``write_scores``
  decode        decode-library: cky_decode + from_char_tree per sentence
  decode-setup  decode-library set-up: import plus the first call
  train         train + Checkpoint.save, at least three times with one seed
  train-model   train the parse-checkpoint model (preparation, untimed)

The result file gets the role's own timings and checks.  With
``--trace-out`` the charspan functions are wrapped first, the spans are
written to that file at the end, and the result carries the trace totals.
The module imports only the standard library at load time, so that the
set-up role can time the import of charspan and numpy itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

TRAIN_CONFIG = dict(scorer="linear", learning_rate=0.5, batch_size=10,
                    label_loss_epochs=2, max_epochs=4)
MIN_DECODE_SENTENCES = 1000
MIN_TRAININGS = 3        # set-up and tree-epoch medians need a few samples


def _path(args, name: str) -> str:
    return os.path.join(args.inputs, name)


def _labels(args) -> list[str]:
    with open(_path(args, "labels.json"), encoding="utf-8") as f:
        return json.load(f)


def role_parse(args) -> dict:
    from charspan import cli
    code = cli.main(args.cli)
    return {"exit_code": code}


def role_write_scores(args) -> dict:
    import charspan
    from prepare import noisy_oracle
    trees = list(charspan.load_corpus(_path(args, "gold.txt")))
    vocab = charspan.LabelVocab(_labels(args))
    gold_maps = [charspan.gold_span_labels(charspan.to_char_tree(t)) for t in trees]
    with open(_path(args, "manifest.json"), encoding="utf-8") as f:
        setup_index = json.load(f)["setup_index"]
    seconds = []
    with open(os.path.join(args.out, "scores.txt"), "w", encoding="utf-8") as sink:
        for k, gold in enumerate(gold_maps):
            scores = noisy_oracle(gold, vocab, args.seed, k)
            start = time.perf_counter()
            charspan.write_scores(scores, vocab, sink, str(k))
            seconds.append(time.perf_counter() - start)
            del scores
        start = time.perf_counter()
        sink.flush()
        close_s = time.perf_counter() - start
        # not timed: the parse commands then read the file without
        # competing with its writeback
        os.fsync(sink.fileno())
    # the set-up runs parse this sentence alone; not timed
    with open(os.path.join(args.out, "scores1.txt"), "w", encoding="utf-8") as sink:
        charspan.write_scores(noisy_oracle(gold_maps[setup_index], vocab, args.seed,
                                           setup_index), vocab, sink, "0")
    return {"write_s": sum(seconds) + close_s, "sentences": len(trees),
            "bytes": os.path.getsize(os.path.join(args.out, "scores.txt"))}


def role_decode(args) -> dict:
    import charspan
    from prepare import noisy_oracle
    trees = list(charspan.load_corpus(_path(args, "gold.txt")))
    vocab = charspan.LabelVocab(_labels(args))
    sentences = ["".join(t.leaves()) for t in trees]
    gold_cts = [charspan.to_char_tree(t) for t in trees]
    gold_maps = [charspan.gold_span_labels(ct) for ct in gold_cts]
    latencies: list[float] = []
    failed = 0
    pred_trees, pred_segs = [], []
    passes = 0
    while sum(latencies) < args.seconds or len(latencies) < MIN_DECODE_SENTENCES:
        for k, tree in enumerate(trees):
            scores = noisy_oracle(gold_maps[k], vocab, args.seed, k)
            start = time.perf_counter()
            ct, total = charspan.cky_decode(scores, vocab, chars=sentences[k])
            word_tree, seg = charspan.from_char_tree(ct)
            latencies.append(time.perf_counter() - start)
            exact = (ct == gold_cts[k] and word_tree == tree
                     and total == charspan.tree_score(scores, vocab, gold_cts[k]))
            failed += not exact
            if passes == 0:
                pred_trees.append(word_tree)
                pred_segs.append(seg)
            del scores
        passes += 1
    seg = charspan.seg_f1([charspan.segmentation_of(t) for t in trees], pred_segs)
    par = charspan.parse_f1(trees, pred_trees)
    return {"latencies_s": latencies, "failed": failed, "passes": passes,
            "seg_f1": seg.f1, "parse_f1": par.f1}


def role_decode_setup(args) -> dict:
    start = time.perf_counter()
    import charspan
    import_s = time.perf_counter() - start
    from prepare import noisy_oracle
    tree = charspan.load_corpus(_path(args, "gold1.txt"))[0]
    vocab = charspan.LabelVocab(_labels(args))
    with open(_path(args, "manifest.json"), encoding="utf-8") as f:
        index = json.load(f)["setup_index"]
    gold_ct = charspan.to_char_tree(tree)
    scores = noisy_oracle(charspan.gold_span_labels(gold_ct), vocab, args.seed, index)
    start = time.perf_counter()
    ct, _ = charspan.cky_decode(scores, vocab, chars="".join(tree.leaves()))
    charspan.from_char_tree(ct)
    first_call_s = time.perf_counter() - start
    return {"setup_s": import_s + first_call_s, "import_s": import_s,
            "exact": ct == gold_ct}


class TimedHistory(list):
    """Epoch records, each stamped with the time it was appended."""

    def __init__(self):
        super().__init__()
        self.times: list[float] = []

    def append(self, record) -> None:
        self.times.append(time.perf_counter())
        super().append(record)


def _train_once(args, train_corpus, dev_corpus, path: str) -> dict:
    import charspan
    from prepare import file_sha256
    config = charspan.TrainConfig(seed=args.seed, **TRAIN_CONFIG)
    history = TimedHistory()
    start = time.perf_counter()
    checkpoint = charspan.train(train_corpus, dev_corpus, config, history=history)
    train_s = time.perf_counter() - start
    checkpoint.save(path)
    return {"epoch_ends_s": [t - start for t in history.times],
            "losses": [rec["loss"] for rec in history],
            "loss_kinds": [rec["loss_kind"] for rec in history],
            "train_s": train_s, "max_epochs": config.max_epochs,
            "sha256": file_sha256(path)}


def role_train(args) -> dict:
    import charspan
    train_corpus = charspan.load_corpus(_path(args, "train.txt"))
    dev_corpus = charspan.load_corpus(_path(args, "dev.txt"))
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_TRAININGS or time.perf_counter() - start < args.seconds:
        path = os.path.join(args.out, f"model{len(runs)}.npz")
        runs.append(_train_once(args, train_corpus, dev_corpus, path))
    return {"runs": runs}


def role_train_model(args) -> dict:
    import charspan
    config = charspan.TrainConfig(seed=args.seed, **TRAIN_CONFIG)
    checkpoint = charspan.train(charspan.load_corpus(_path(args, "train.txt")),
                                charspan.load_corpus(_path(args, "dev.txt")),
                                config)
    path = _path(args, "model.npz")
    checkpoint.save(path + ".tmp")
    os.replace(path + ".tmp", path)
    return {"labels": len(checkpoint.labels)}


ROLES = {
    "parse": role_parse,
    "write-scores": role_write_scores,
    "decode": role_decode,
    "decode-setup": role_decode_setup,
    "train": role_train,
    "train-model": role_train_model,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.cli = argv[cut + 1:]

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = ROLES[args.role](args)
    if tracer is not None:
        start = time.perf_counter()
        tracer.dump(args.trace_out)
        result["trace"] = tracer.state()
        result["dump_s"] = time.perf_counter() - start
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
