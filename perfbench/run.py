"""The charspan benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run it from the root of a charspan checkout.  Inputs are generated from
``--seed`` and cached under ``.perfbench/`` (see prepare.py); generating
them is never timed.  Every timed step runs in a fresh child process
(child.py), one at a time, and the child's peak RSS is read with
``os.wait4``.  Outputs are checked against the inputs or the gold trees.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics BENCHMARK.json declares.  With ``--trace 1`` the
workload runs once untraced and once with every charspan function of
tracing.py wrapped, and the object carries the per-layer metrics plus the
tracing overhead.  The lines above it name every metric with its unit,
including the workload-specific ones of spec.py, and the run's context.
The full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import prepare
import spec
import tracing

SETUP_RUNS = 5          # fresh processes per set-up measurement
MIN_PARSE_COMMANDS = 5  # parse commands per untraced parse workload run
CHILD_TIMEOUT_S = 170   # a run must end within 180 s
OVERHEAD_METRIC = "tracing.sents_per_s_ratio"


class BenchError(RuntimeError):
    """The workload could not be measured; no result is printed."""


@dataclass
class Child:
    """A finished child process: wall time, peak RSS and its result file."""

    wall_s: float
    peak_rss_mb: float
    exit_code: int
    result: dict


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs, _ = prepare.prepare(workload, seed)
        self.out = os.path.join(prepare.CACHE_ROOT, "runs", f"{workload}-seed{seed}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self._children = 0

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def spawn(self, role: str, traced: bool = False, cli: tuple = (),
              inputs: str | None = None, seed: int | None = None) -> Child:
        self._children += 1
        tag = f"{self._children:02d}-{role}"
        result_path = self.path(tag + ".json")
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
               role, "--inputs", inputs or self.inputs, "--out", self.out,
               "--result", result_path,
               "--seed", str(self.seed if seed is None else seed),
               "--seconds", str(self.seconds)]
        if traced:
            cmd += ["--trace-out", self.path(tag + ".spans.jsonl")]
        if cli:
            cmd += ["--", *cli]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as f:
                result = json.load(f)
        # ru_maxrss is in KiB on Linux
        return Child(wall_s, usage.ru_maxrss * 1024 / 1e6, proc.returncode, result)


@dataclass
class Outcome:
    """One measured pass of a workload's timed work."""

    samples: list               # sents_per_s of each command, pass or training
    peak_rss_mb: float
    attempted: int
    failed: int
    extras: dict
    checks: dict
    traces: list                # trace totals of the traced children
    shape: dict
    setup_samples: list | None = None
    rate: float | None = None   # sents_per_s; the median of samples if None

    def __post_init__(self):
        if self.rate is None:
            self.rate = statistics.median(self.samples)


# --- helpers ---------------------------------------------------------------

def _lines(path: str) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _sha256(path: str) -> str | None:
    return prepare.file_sha256(path) if os.path.exists(path) else None


def _n_shape(lengths: list[int]) -> dict:
    q = statistics.quantiles(lengths, n=10, method="inclusive")
    return {"sentences": len(lengths), "n_min": min(lengths),
            "n_p50": statistics.median(lengths), "n_p90": q[8],
            "n_max": max(lengths)}


def _traces(*children: Child) -> list:
    return [c.result["trace"] for c in children if "trace" in c.result]


def _command_rate(child: Child, sentences: int) -> float:
    """Sentences per second of a whole command, less the span dump."""
    return sentences / (child.wall_s - child.result.get("dump_s", 0.0))


def _require(child: Child, what: str) -> None:
    if not child.result:
        raise BenchError(f"{what} exited with code {child.exit_code} "
                         f"and wrote no result")


PARSE_OUTPUTS = ("trees.txt", "segs.txt", "chars.txt")


def _parse_cli(run: Run, source: list[str], sentences: str, prefix: str) -> tuple:
    trees, segs, chars = (run.path(prefix + name) for name in PARSE_OUTPUTS)
    return ("parse", *source, "--input", sentences, "--output", trees,
            "--segs", segs, "--char-trees", chars)


def _check_parse(run: Run, sentences: list[str], prefix: str,
                 gold: list | None = None) -> tuple[int, dict]:
    """Failed sentences of a parse command's outputs.

    Every run checks one tree, segmentation and char tree per input line,
    with yields equal to the input.  With ``gold`` each must also equal the
    gold tree exactly, and seg and parse F1 must be 1.0.
    """
    import charspan
    trees, segs, chars = (_lines(run.path(prefix + name)) for name in PARSE_OUTPUTS)
    checks = {"line_counts": len(trees) == len(segs) == len(chars) == len(sentences)}
    failed = 0
    pred_trees, pred_segs = [], []
    for k, sentence in enumerate(sentences):
        ok = k < min(len(trees), len(segs), len(chars))
        if ok:
            try:
                tree = charspan.parse_bracketed(trees[k])[0]
            except (ValueError, IndexError):
                failed += 1
                continue
            words = segs[k].split()
            ok = ("".join(tree.leaves()) == sentence and "".join(words) == sentence
                  and tree.leaves() == words)
            pred_trees.append(tree)
            pred_segs.append(charspan.WordSegmentation.from_words(words or [sentence]))
        if ok and gold is not None:
            gold_tree = gold[k]
            ok = (trees[k] == charspan.serialize_bracketed(gold_tree)
                  and chars[k] == charspan.serialize_char_tree(
                      charspan.to_char_tree(gold_tree))
                  and words == gold_tree.leaves())
        failed += not ok
    if gold is not None:
        full = len(pred_trees) == len(gold)
        checks["seg_f1_is_1"] = full and charspan.seg_f1(
            [charspan.segmentation_of(t) for t in gold], pred_segs).f1 == 1.0
        checks["parse_f1_is_1"] = full and charspan.parse_f1(gold, pred_trees).f1 == 1.0
    checks["outputs_sha256"] = {name: _sha256(run.path(prefix + name))
                                for name in PARSE_OUTPUTS}
    return failed, checks


def _parse_setup(run: Run, source: list[str]) -> tuple[list[float], int]:
    """Wall times of the parse command on a one-sentence input, and the
    number of those runs that failed."""
    samples, failed = [], 0
    sentence = _lines(os.path.join(run.inputs, "sentence1.txt"))
    for _ in range(SETUP_RUNS):
        child = run.spawn("parse", cli=_parse_cli(
            run, source, os.path.join(run.inputs, "sentence1.txt"), "setup-"))
        bad, _ = _check_parse(run, sentence, "setup-")
        failed += child.exit_code != 0 or bad > 0
        samples.append(child.wall_s)
    return samples, failed


# --- workloads -------------------------------------------------------------

def _model(run: Run) -> str:
    """The parse-checkpoint model, trained once per checkout and cached."""
    inputs, _ = prepare.prepare("model", prepare.MODEL_SEED)
    path = os.path.join(inputs, "model.npz")
    if not os.path.exists(path):
        child = run.spawn("train-model", inputs=inputs, seed=prepare.MODEL_SEED)
        if child.exit_code != 0 or not os.path.exists(path):
            raise BenchError("training the parse-checkpoint model failed")
    return path


def _parse_repeats(run: Run, source: list[str], traced: bool,
                   gold: list | None = None) -> tuple:
    """Parse the input with separate commands, one after another, until
    they have taken ``run.seconds`` and at least ``MIN_PARSE_COMMANDS``
    ran (one command when traced).

    Returns the rate of each command, the peak RSS, attempted and failed
    sentences, the checks and the trace totals.
    """
    sentences_path = os.path.join(run.inputs, "sentences.txt")
    sentences = _lines(sentences_path)
    rates, rss, failed, digests, traces = [], 0.0, 0, [], []
    busy_s = 0.0
    while not rates or (not traced and (len(rates) < MIN_PARSE_COMMANDS
                                        or busy_s < run.seconds)):
        k = len(rates)
        prefix = f"traced{k}-" if traced else f"run{k}-"
        child = run.spawn("parse", traced, _parse_cli(run, source, sentences_path,
                                                      prefix))
        bad, checks = _check_parse(run, sentences, prefix, gold)
        failed += len(sentences) if child.exit_code != 0 else bad
        rates.append(_command_rate(child, len(sentences)))
        busy_s += child.wall_s
        rss = max(rss, child.peak_rss_mb)
        digests.append(checks["outputs_sha256"])
        traces += _traces(child)
    checks["repeats_same_outputs"] = all(d == digests[0] for d in digests)
    return (rates, rss, len(rates) * len(sentences), failed,
            checks, traces, sentences)


def _with_setup(outcome: Outcome, setup: tuple | None) -> Outcome:
    """Add the set-up samples of an untraced run, and their failures."""
    if setup is not None:
        outcome.setup_samples, failed = setup
        outcome.attempted += len(outcome.setup_samples)
        outcome.failed += failed
    return outcome


# Untraced, the parse and decode workloads measure their set-up first: the
# fresh processes that do so also warm the page cache and the bytecode
# cache for the timed work after them.

def parse_checkpoint(run: Run, traced: bool) -> Outcome:
    model = _model(run)
    source = ["--checkpoint", model]
    setup = None if traced else _parse_setup(run, source)
    rates, rss, attempted, failed, checks, traces, sentences = _parse_repeats(
        run, source, traced)
    import numpy as np
    with np.load(model) as data:
        labels = len(data["labels"])
    shape = {**_n_shape([len(s) for s in sentences]), "labels": labels,
             "input_bytes": os.path.getsize(os.path.join(run.inputs, "sentences.txt")),
             "model_bytes": os.path.getsize(model), "commands": len(rates)}
    return _with_setup(Outcome(rates, rss, attempted, failed, {}, checks, traces,
                               shape), setup)


def _gold(run: Run) -> list:
    import charspan
    return list(charspan.load_corpus(os.path.join(run.inputs, "gold.txt")))


def parse_scorefile(run: Run, traced: bool) -> Outcome:
    writer = run.spawn("write-scores", traced)
    _require(writer, "write-scores")
    scores_path = run.path("scores.txt")
    # scores1.txt holds the one sentence of the set-up runs
    setup = None if traced else _parse_setup(
        run, ["--score-file", run.path("scores1.txt")])
    rates, rss, attempted, failed, checks, traces, sentences = _parse_repeats(
        run, ["--score-file", scores_path], traced, _gold(run))
    shape = {**_n_shape([len(s) for s in sentences]),
             "labels": prepare.SCORE_LABELS, "input_bytes": writer.result["bytes"],
             "commands": len(rates)}
    os.remove(scores_path)   # tens of MB; rewritten by every run
    extras = {"write_sents_per_s": len(sentences) / writer.result["write_s"]}
    return _with_setup(Outcome(rates, max(writer.peak_rss_mb, rss), attempted,
                               failed, extras, checks, _traces(writer) + traces,
                               shape), setup)


def _decode_setup(run: Run) -> tuple[list[float], int]:
    samples, failed = [], 0
    for _ in range(SETUP_RUNS):
        child = run.spawn("decode-setup")
        _require(child, "decode-setup")
        failed += not child.result["exact"]
        samples.append(child.result["setup_s"])
    return samples, failed


def decode_library(run: Run, traced: bool) -> Outcome:
    setup = None if traced else _decode_setup(run)
    child = run.spawn("decode", traced)
    _require(child, "decode")
    result = child.result
    latencies = result["latencies_s"]
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    extras = {"latency_ms_p50": statistics.median(latencies) * 1e3,
              "latency_ms_p99": q[98] * 1e3}
    checks = {"seg_f1_is_1": result["seg_f1"] == 1.0,
              "parse_f1_is_1": result["parse_f1"] == 1.0,
              "passes": result["passes"]}
    gold = _gold(run)
    shape = {**_n_shape([len("".join(t.leaves())) for t in gold]),
             "labels": prepare.SCORE_LABELS, "timed_sentences": len(latencies),
             "input_bytes": os.path.getsize(os.path.join(run.inputs, "gold.txt"))}
    per_pass = len(gold)
    rates = [per_pass / sum(latencies[k:k + per_pass])
             for k in range(0, len(latencies), per_pass)]
    return _with_setup(Outcome(rates, child.peak_rss_mb, len(latencies),
                               result["failed"], extras, checks, _traces(child),
                               shape), setup)


def train(run: Run, traced: bool) -> Outcome:
    child = run.spawn("train", traced)
    _require(child, "train")
    runs = child.result["runs"]
    label_epochs, tree_epochs, setups, rates = [], [], [], []
    attempted = failed = 0
    for r in runs:
        ends = r["epoch_ends_s"]
        epochs = [b - a for a, b in zip([0.0, *ends], ends)]
        attempted += r["max_epochs"]
        failed += r["max_epochs"] - len(ends)
        failed += sum(not math.isfinite(x) for x in r["losses"])
        if len(epochs) >= 3:
            label_epochs.append(epochs[1])
            tree_epochs.extend(epochs[2:4])
            setups.append(epochs[0] - epochs[1])
        rates.append(prepare.TRAIN_SENTENCES * len(ends) / r["train_s"])
    same = [r["sha256"] == runs[0]["sha256"] for r in runs]
    failed += sum(r["max_epochs"] for r, s in zip(runs, same) if not s)
    if not tree_epochs:
        raise BenchError("training ended before its first tree-loss epoch")
    tree_epoch_s = statistics.median(tree_epochs)
    checks = {"train_runs": len(runs),
              "same_seed_same_checkpoint_bytes": all(same),
              "loss_kinds": runs[0]["loss_kinds"]}
    extras = {"label_epoch_s": statistics.median(label_epochs),
              "tree_epoch_s": tree_epoch_s}
    import charspan
    train_trees = charspan.load_corpus(os.path.join(run.inputs, "train.txt"))
    shape = {**_n_shape([len("".join(t.leaves())) for t in train_trees]),
             "dev_sentences": prepare.DEV_SENTENCES, "labels": prepare.TRAIN_LABELS,
             "input_bytes": sum(os.path.getsize(os.path.join(run.inputs, name))
                                for name in ("train.txt", "dev.txt"))}
    # Training speed flips between two levels on a shared host, from one
    # training to the next; a whole-run throughput averages over them where
    # a median of a few trainings lands on either level.
    rate = (prepare.TRAIN_SENTENCES * sum(len(r["epoch_ends_s"]) for r in runs)
            / sum(r["train_s"] for r in runs))
    return Outcome(rates, child.peak_rss_mb,
                   attempted, failed, extras, checks, _traces(child), shape,
                   setup_samples=setups, rate=rate)


WORKLOADS = {
    "parse-checkpoint": parse_checkpoint,
    "parse-scorefile": parse_scorefile,
    "decode-library": decode_library,
    "train": train,
}


# --- reporting -------------------------------------------------------------

def _context(run: Run, shape: dict) -> dict:
    import charspan
    import numpy as np
    git_rev = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        git_rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join("src", "charspan")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return {"git_rev": git_rev, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "backends": charspan.available_backends(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "workload": run.workload,
            "seed": run.seed, "seconds": run.seconds, "shape": shape}


def probe_ms() -> float:
    """Time of a fixed pure-Python loop, recorded before and after each run:
    on a shared machine it shows how fast the machine was running."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def _declared() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    probe_before = probe_ms()
    body = WORKLOADS[workload]
    declared = _declared()
    outcomes = [body(run, False)]
    base = outcomes[0]
    if trace:
        outcomes.append(body(run, True))
        state = tracing.merge(outcomes[1].traces)
        missing = [name for name in spec.EXPECTED_CALLS[workload]
                   if state["calls"].get(name, 0) == 0]
        if missing:
            raise BenchError(f"layers with no traced calls on {workload}: "
                             + ", ".join(missing))
        values = tracing.layer_metrics(state)
        values[OVERHEAD_METRIC] = outcomes[1].rate / base.rate
        if ("outputs_sha256" in base.checks and outcomes[1].checks["outputs_sha256"]
                != base.checks["outputs_sha256"]):
            outcomes[1].failed = outcomes[1].attempted
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = {"sents_per_s": base.rate,
                  "setup_s": statistics.median(base.setup_samples),
                  "peak_rss_mb": base.peak_rss_mb}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(values) != set(units):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    extras = dict(base.extras)
    extras["failed_frac"] = failed / attempted
    checks_ok = all(v for o in outcomes for k, v in o.checks.items()
                    if isinstance(v, bool))
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "extras": {name: {"value": value, "unit": spec.EXTRA_METRICS[name][0]}
                   for name, value in extras.items()},
        "checks": [o.checks for o in outcomes],
        "samples": {"sents_per_s": base.samples, "setup_s": base.setup_samples},
        "context": {**_context(run, base.shape),
                    "probe_ms": [probe_before, probe_ms()]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "charspan")):
        print("perfbench: src/charspan not found; run from the root of a "
              "charspan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 3
    results = os.path.join(prepare.CACHE_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for section in ("metrics", "extras"):
        for name, m in record[section].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print("  context " + json.dumps(record["context"], sort_keys=True))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
