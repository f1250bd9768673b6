"""Joint Chinese word segmentation and constituency parsing.

Word-level treebank trees are rewritten as binary character-level trees
("@1" marks a character inside a word, "@2" a word-internal join, "∅" a
non-constituent), every character span gets a label score, and a CKY
pass recovers the best tree, which maps back to a segmentation plus a
word-level parse in one step.
"""

from .chartree import (CharTree, GoldSpanMap, WordSegmentation,
                       from_char_tree, gold_span_labels, load_char_trees,
                       parse_char_trees, save_char_trees,
                       segmentation_of, serialize_char_tree, to_char_tree)
from .decoder import (DecodeConfig, apply_masks, available_backends,
                      brute_force_decode, cky_decode, decode_sentence,
                      tree_score)
from .labels import CHAR_LABEL, NULL_LABEL, SUBWORD_LABEL
from .losses import LossValue, label_loss, tree_loss
from .metrics import PRF, constituents, joint_report, parse_f1, seg_f1
from .scorers import LinearScorer, MLPHead, SentenceGradient
from .scoring import (LabelVocab, SpanScores, build_vocab, oracle_scores,
                      read_score_file, score_spans,
                      span_representation, write_scores)
from .synthesis import synthesize_bench_corpus, synthesize_corpus
from .trainer import Checkpoint, TrainConfig, evaluate_dev, train
from .treebank import (DataError, SyntaxTree, TreeFormatError, load_corpus,
                       parse_bracketed, save_corpus, serialize_bracketed,
                       strip_function_tags)

__version__ = "0.1.0"

__all__ = [
    "CHAR_LABEL", "NULL_LABEL", "SUBWORD_LABEL",
    "SyntaxTree", "DataError", "TreeFormatError",
    "parse_bracketed", "serialize_bracketed", "load_corpus", "save_corpus",
    "strip_function_tags",
    "CharTree", "WordSegmentation", "GoldSpanMap",
    "to_char_tree", "from_char_tree", "gold_span_labels", "segmentation_of",
    "serialize_char_tree", "parse_char_trees", "load_char_trees",
    "save_char_trees",
    "LabelVocab", "SpanScores", "build_vocab", "span_representation",
    "score_spans", "oracle_scores", "write_scores", "read_score_file",
    "LinearScorer", "MLPHead", "SentenceGradient",
    "DecodeConfig", "apply_masks", "available_backends", "cky_decode",
    "decode_sentence",
    "brute_force_decode", "tree_score",
    "LossValue", "label_loss", "tree_loss",
    "PRF", "seg_f1", "parse_f1", "constituents", "joint_report",
    "TrainConfig", "Checkpoint", "train", "evaluate_dev",
    "synthesize_corpus", "synthesize_bench_corpus",
    "__version__",
]
