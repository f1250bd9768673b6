"""The benchmark's traced run keeps finding every layer it expects.

``perfbench/spec.py`` lists, per workload, the functions that must record
at least one call under ``perfbench/tracing.py``'s tracer; a traced run
fails when one records none.  This test drives the same functions through
the command line (and, for the score file that ``parse --score-file``
reads, through the library calls the benchmark uses to write it), in a
fresh interpreter because the tracer rewraps the package for good, and
reads perfbench without changing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from charspan.synthesis import synthesize_corpus
from charspan.treebank import save_corpus

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import json, sys
import spec, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from charspan import (build_vocab, cli, gold_span_labels, load_corpus,
                      oracle_scores, to_char_tree, write_scores)
work = sys.argv[1]
train = ["train", work + "/gold.txt", work + "/gold.txt", work + "/model.npz",
         "--learning-rate", "0.5", "--batch-size", "4",
         "--label-loss-epochs", "1", "--max-epochs", "2"]
parse = ["parse", "--checkpoint", work + "/model.npz", "--input",
         work + "/sents.txt", "--output", work + "/trees.txt",
         "--char-trees", work + "/chars.txt"]
cts = [to_char_tree(t) for t in load_corpus(work + "/gold.txt")]
vocab = build_vocab(cts)
with open(work + "/scores.txt", "w", encoding="utf-8") as sink:
    for k, ct in enumerate(cts):
        write_scores(oracle_scores(gold_span_labels(ct), vocab), vocab, sink, str(k))
parse_scores = ["parse", "--score-file", work + "/scores.txt", "--input",
                work + "/sents.txt", "--output", work + "/score-trees.txt",
                "--char-trees", work + "/score-chars.txt"]
codes = [cli.main(train), cli.main(parse), cli.main(parse_scores)]
print(json.dumps({"codes": codes, "calls": dict(tracer.calls),
                  "expected": {k: spec.EXPECTED_CALLS[k] for k in
                               ("parse-checkpoint", "parse-scorefile", "train")}}))
"""


def test_traced_cli_run_calls_every_expected_layer(tmp_path):
    corpus = synthesize_corpus(6, seed=31, median_chars=7.0, max_chars=12)
    save_corpus(corpus, tmp_path / "gold.txt")
    (tmp_path / "sents.txt").write_text(
        "".join("".join(t.leaves()) + "\n" for t in corpus), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PERFBENCH), str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                       capture_output=True, text=True, timeout=300, env=env)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0], r.stderr
    for workload, names in report["expected"].items():
        silent = [name for name in names if report["calls"].get(name, 0) < 1]
        assert not silent, f"{workload}: no calls recorded for {silent}"
