"""What each workload measures, beyond the keys BENCHMARK.json can hold.

BENCHMARK.json declares the workloads, the gated end-to-end metrics (every
workload reports each of them) and the per-layer metric names.  This file
adds the workload-specific end-to-end metrics, the layers every workload
must exercise, and which end-to-end metric each layer should move.
"""

WORKLOADS = ("parse-checkpoint", "parse-scorefile", "decode-library", "train")

# Reported for the named workloads only, next to the gated metrics:
# name -> (unit, better, workloads)
EXTRA_METRICS = {
    "write_sents_per_s": ("1/s", "higher", ("parse-scorefile",)),
    "latency_ms_p50": ("ms", "lower", ("decode-library",)),
    "latency_ms_p99": ("ms", "lower", ("decode-library",)),
    "label_epoch_s": ("s", "lower", ("train",)),
    "tree_epoch_s": ("s", "lower", ("train",)),
    "failed_frac": ("ratio", "lower", WORKLOADS),
}

# Traced functions that must record calls on each workload; a run that
# finds one of them at zero calls fails instead of reporting.
EXPECTED_CALLS = {
    "parse-checkpoint": (
        "cli.main", "trainer.Checkpoint.load", "trainer.Checkpoint.build_scorer",
        "scoring.score_spans", "scoring.span_representation",
        "scorers.LinearScorer.score", "decoder.apply_masks", "decoder.fill_chart",
        "decoder.cky_decode", "chartree.from_char_tree",
        "chartree.save_char_trees"),
    "parse-scorefile": (
        "cli.main", "treebank.load_corpus", "chartree.to_char_tree",
        "scoring.write_scores", "scoring.read_score_file", "decoder.apply_masks",
        "decoder.fill_chart", "decoder.cky_decode", "chartree.from_char_tree",
        "chartree.save_char_trees"),
    "decode-library": (
        "treebank.load_corpus", "chartree.to_char_tree", "decoder.apply_masks",
        "decoder.fill_chart", "decoder.cky_decode", "chartree.from_char_tree",
        "metrics.seg_f1", "metrics.parse_f1"),
    "train": (
        "treebank.load_corpus", "chartree.to_char_tree", "chartree.from_char_tree",
        "scoring.span_representation", "scoring.score_spans",
        "scorers.LinearScorer.score", "scorers.LinearScorer.score_train",
        "scorers.LinearScorer.backward", "scorers.LinearScorer.sgd_step",
        "decoder.apply_masks", "decoder.fill_chart", "decoder.cky_decode",
        "losses.label_loss", "losses.tree_loss", "trainer.train",
        "trainer.Checkpoint.save", "metrics.seg_f1", "metrics.parse_f1"),
}

# Layer -> the end-to-end metrics (workload, metric) it should move.  On
# every other workload the prediction for that layer is no change.
MOVES = {
    "scoring.span_representation": [("parse-checkpoint", "sents_per_s")],
    "scorers.LinearScorer.score": [("parse-checkpoint", "sents_per_s")],
    "scoring.read_score_file": [("parse-scorefile", "sents_per_s")],
    "scoring.write_scores": [("parse-scorefile", "write_sents_per_s")],
    "decoder": [("decode-library", "sents_per_s"),
                ("decode-library", "latency_ms_p50"),
                ("decode-library", "latency_ms_p99"),
                ("parse-scorefile", "sents_per_s")],
    "trainer.Checkpoint.load": [("parse-checkpoint", "setup_s"),
                                ("parse-checkpoint", "peak_rss_mb")],
    "trainer.Checkpoint.build_scorer": [("parse-checkpoint", "setup_s"),
                                        ("parse-checkpoint", "peak_rss_mb")],
    "losses.label_loss": [("train", "label_epoch_s"), ("train", "peak_rss_mb")],
    "scorers.LinearScorer.sgd_step": [("train", "label_epoch_s"),
                                      ("train", "tree_epoch_s"),
                                      ("train", "sents_per_s")],
    "trainer.train": [("train", "label_epoch_s"), ("train", "tree_epoch_s"),
                      ("train", "sents_per_s"), ("train", "peak_rss_mb")],
    "chartree.from_char_tree": [("parse-checkpoint", "sents_per_s"),
                                ("parse-scorefile", "sents_per_s"),
                                ("decode-library", "sents_per_s")],
}
