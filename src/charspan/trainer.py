"""Mini-batch training with the two-phase loss schedule.

Epochs 1..label_loss_epochs use the per-span cross-entropy, the rest the
structured hinge.  After every epoch the dev set is decoded and parse F1
drives the schedule: no improvement for ``decay_patience`` consecutive
epochs halves the learning rate (times ``decay_factor``), and training
stops after ``max_decay`` decays, at the epoch cap, or when an epoch's
loss hits exactly zero (no gradient can flow anymore).  The best-dev
parameters are returned.

The optimizer is plain mini-batch SGD on the batch mean.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .chartree import (from_char_tree, gold_span_labels, segmentation_of,
                       to_char_tree)
# cky_decode stays bound here: perfbench/test_prepare.py checks that the
# benchmark's tracer wraps it under this name too
from .decoder import DecodeConfig, cky_decode, decode_sentence  # noqa: F401
from .losses import MARGIN_MODES, SPAN_SETS, label_loss, tree_loss
from .metrics import PRF, parse_f1, seg_f1
from .scorers import LinearScorer, MLPHead, check_keys
from .scoring import (LabelVocab, SpanScores, build_vocab, span_bounds,
                      span_representation)

FEATURE_SCORER_LEARNING_RATE = 0.1

LINEAR_FEATURE_DIM = 1 << 20
MLP_FEATURE_DIM = 1 << 14  # keeps MLP checkpoints at tens of megabytes


@dataclass
class TrainConfig:
    scorer: str = "linear"              # "linear" | "mlp"
    learning_rate: float | None = None  # None: preset for the chosen scorer
    decay_factor: float = 0.5
    decay_patience: int = 3
    max_decay: int = 10
    batch_size: int = 250
    label_loss_epochs: int = 10
    max_epochs: int = 100
    mlp_hidden: int = 250
    dropout: float = 0.2
    seed: int = 0
    margin_mode: str = "flat"           # tree-loss margin: "flat" | "hamming"
    loss_spans: str = "all"             # label-loss span set: "all" | "gold"
    feature_dim: int | None = None      # None: preset for the chosen scorer

    def __post_init__(self):
        if self.scorer not in ("linear", "mlp"):
            raise ValueError(f"unknown scorer {self.scorer!r}")
        for name in ("decay_factor", "decay_patience", "max_decay", "batch_size",
                     "label_loss_epochs", "max_epochs", "mlp_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.margin_mode not in MARGIN_MODES:
            raise ValueError(f"unknown margin mode {self.margin_mode!r}")
        if self.loss_spans not in SPAN_SETS:
            raise ValueError(f"unknown span set {self.loss_spans!r}")

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return FEATURE_SCORER_LEARNING_RATE

    @property
    def effective_feature_dim(self) -> int:
        if self.feature_dim is not None:
            return self.feature_dim
        return MLP_FEATURE_DIM if self.scorer == "mlp" else LINEAR_FEATURE_DIM


_CONFIG_CASTS = {
    "scorer": str, "learning_rate": float, "decay_factor": float,
    "decay_patience": int, "max_decay": int, "batch_size": int,
    "label_loss_epochs": int, "max_epochs": int, "mlp_hidden": int,
    "dropout": float, "seed": int, "margin_mode": str, "loss_spans": str,
    "feature_dim": int,
}


def parse_train_config(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """key = value lines, '#' comments; unknown keys rejected."""
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_CASTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _CONFIG_CASTS[key](value)
        except ValueError:
            raise ValueError(f"config line {lineno}: bad value {value!r} "
                             f"for {key!r}") from None
    return replace(base or TrainConfig(), **updates)


def load_train_config(path) -> TrainConfig:
    with io.open(path, "r", encoding="utf-8") as f:
        return parse_train_config(f.read())


class Checkpoint:
    """Scorer parameters plus everything needed to rebuild inference."""

    def __init__(self, scorer_kind: str, params: dict[str, np.ndarray],
                 labels: list[str], feature_dim: int, mlp_hidden: int,
                 dropout: float, epoch: int, best_dev_f1: float, decays: int):
        self.scorer_kind = scorer_kind
        self.params = params
        self.labels = labels
        self.feature_dim = feature_dim
        self.mlp_hidden = mlp_hidden
        self.dropout = dropout
        self.epoch = epoch
        self.best_dev_f1 = best_dev_f1
        self.decays = decays

    @property
    def vocab(self) -> LabelVocab:
        return LabelVocab(self.labels)

    def build_scorer(self):
        """The scorer of these parameters.  It adopts the checkpoint's
        arrays rather than copying them, so a process holds one copy of the
        weights; a caller who trains the scorer and still needs the
        checkpoint must copy ``params`` first."""
        if self.scorer_kind == "linear":
            return LinearScorer(self.feature_dim, len(self.labels),
                                self.params["keys"], self.params["rows"])
        return MLPHead(self.feature_dim, len(self.labels), self.mlp_hidden,
                       self.dropout, params=self.params)

    def save(self, path) -> None:
        arrays = {
            "scorer_kind": np.array(self.scorer_kind),
            "labels": np.array(self.labels, dtype=str),
            "feature_dim": np.array(self.feature_dim),
            "mlp_hidden": np.array(self.mlp_hidden),
            "dropout": np.array(self.dropout),
            "epoch": np.array(self.epoch),
            "best_dev_f1": np.array(self.best_dev_f1),
            "decays": np.array(self.decays),
        }
        if self.scorer_kind == "linear":
            # store the nonzero rows only, keyed by hashed id
            rows = self.params["rows"]
            nonzero = np.any(rows != 0.0, axis=1)
            arrays["W_ids"] = self.params["keys"][nonzero]
            arrays["W_rows"] = rows[nonzero]
        else:
            for name, value in self.params.items():
                arrays["p_" + name] = value
        with open(path, "wb") as f:
            np.savez(f, **arrays)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; a missing array, one of the wrong shape, linear
        ``W_ids`` that are not strictly increasing integer ids below
        ``feature_dim``, weights (``W_rows``, ``p_*``) that are not floats or
        not all finite, or an unknown scorer kind raises ValueError naming
        ``path``."""
        with np.load(path, allow_pickle=False) as data:
            def array(name: str, shape: tuple) -> np.ndarray:
                # None in ``shape`` matches any length
                if name not in data.files:
                    raise ValueError(f"{path}: checkpoint has no {name!r} array")
                value = data[name]
                if value.ndim != len(shape) or any(
                        want not in (None, got) for want, got in zip(shape, value.shape)):
                    raise ValueError(f"{path}: checkpoint array {name!r} has shape "
                                     f"{value.shape}, expected {shape}")
                return value

            def weights(name: str, shape: tuple) -> np.ndarray:
                value = array(name, shape)
                if not np.issubdtype(value.dtype, np.floating):
                    raise ValueError(f"{path}: checkpoint array {name!r} has dtype "
                                     f"{value.dtype}, expected floats")
                # a NaN or an infinity shows in the minimum or the maximum,
                # and neither makes a temporary array
                if value.size and not (np.isfinite(value.min()) and np.isfinite(value.max())):
                    at = tuple(int(i) for i in np.argwhere(~np.isfinite(value))[0])
                    raise ValueError(f"{path}: checkpoint array {name!r} has the "
                                     f"non-finite value {value[at]} at {at}")
                return value

            kind = str(array("scorer_kind", ()))
            labels = [str(x) for x in array("labels", (None,))]
            dim = int(array("feature_dim", ()))
            hidden = int(array("mlp_hidden", ()))
            if kind == "linear":
                keys = array("W_ids", (None,))
                if not np.issubdtype(keys.dtype, np.integer):
                    raise ValueError(f"{path}: checkpoint array 'W_ids' has dtype "
                                     f"{keys.dtype}, expected integers")
                keys = keys.astype(np.int64, copy=False)
                try:
                    check_keys(keys, dim)
                except ValueError as e:
                    raise ValueError(f"{path}: checkpoint array 'W_ids': {e}") from None
                params = {"keys": keys,
                          "rows": weights("W_rows", (len(keys), len(labels)))}
            elif kind == "mlp":
                shapes = MLPHead.param_shapes(dim, len(labels), hidden)
                params = {name: weights("p_" + name, shape)
                          for name, shape in shapes.items()}
            else:
                raise ValueError(f"{path}: unknown scorer kind {kind!r}")
            return cls(kind, params, labels, dim, hidden,
                       float(array("dropout", ())), int(array("epoch", ())),
                       float(array("best_dev_f1", ())), int(array("decays", ())))


def _make_scorer(config: TrainConfig, dim: int, num_labels: int,
                 rng: np.random.Generator):
    if config.scorer == "linear":
        return LinearScorer(dim, num_labels)
    return MLPHead(dim, num_labels, config.mlp_hidden, config.dropout, rng=rng)


def _sentence_pass(scorer, rep, gold_map, gold_ct, vocab, kind,
                   config: TrainConfig, decode_cfg: DecodeConfig,
                   rng: np.random.Generator):
    """One sentence's loss and the scorer's gradient of it."""
    batch, cache = scorer.score_train(rep, rng)
    scores = SpanScores(gold_map.n, len(vocab), batch, validate=False)
    if kind == "label":
        lv = label_loss(scores, gold_map, vocab, spans=config.loss_spans)
    else:
        lv = tree_loss(scores, gold_ct, vocab, decode_cfg,
                       margin_mode=config.margin_mode)
    return lv.value, scorer.backward(rep, lv.rows, lv.grad, cache)


def _decode_corpus(scorer, vocab: LabelVocab, trees, decode_cfg: DecodeConfig):
    pred_trees = []
    pred_segs = []
    for tree in trees:
        chars = "".join(tree.leaves())
        ct, _ = decode_sentence(scorer, chars, vocab, decode_cfg)
        ptree, pseg = from_char_tree(ct)
        pred_trees.append(ptree)
        pred_segs.append(pseg)
    return pred_trees, pred_segs


def _evaluate(scorer, vocab: LabelVocab, trees,
              decode_cfg: DecodeConfig) -> tuple[PRF, PRF]:
    pred_trees, pred_segs = _decode_corpus(scorer, vocab, trees, decode_cfg)
    seg = seg_f1([segmentation_of(t) for t in trees], pred_segs)
    par = parse_f1(list(trees), pred_trees)
    return seg, par


def train(train_corpus: Sequence, dev_corpus: Sequence,
          config: TrainConfig | None = None,
          history: list | None = None) -> Checkpoint:
    """Train a scorer; returns the checkpoint of the best dev-F1 epoch.

    ``history``, when given, receives one record per epoch with the loss
    kind, epoch loss, learning rate, decay count, and dev metrics.
    """
    if config is None:
        config = TrainConfig()
    train_trees = list(train_corpus)
    dev_trees = list(dev_corpus)
    if not train_trees or not dev_trees:
        raise ValueError("training and dev corpora must be non-empty")

    gold_char = [to_char_tree(t) for t in train_trees]
    gold_maps = [gold_span_labels(ct) for ct in gold_char]
    sentences = ["".join(t.leaves()) for t in train_trees]
    vocab = build_vocab(gold_char)
    dim = config.effective_feature_dim
    rng = np.random.default_rng(config.seed)
    scorer = _make_scorer(config, dim, len(vocab), rng)
    decode_cfg = DecodeConfig()
    # per sentence, the feature ids of its spans in packed row order
    reps = [span_representation(chars, *span_bounds(len(chars)), dim)
            for chars in sentences]
    if config.scorer == "linear":
        # every row SGD will update exists before the first step; the
        # position tables hold the ids of all spans of their sentence
        scorer.register(np.concatenate([table.ravel() for rep in reps
                                        for table in rep.positions]))

    lr = config.effective_learning_rate
    # dev F1 is never NaN, so epoch 1 always beats -1 and sets best_params
    best_f1 = -1.0
    best_params: dict[str, np.ndarray] = {}
    best_epoch = 0
    decays = 0
    since_improve = 0

    for epoch in range(1, config.max_epochs + 1):
        kind = "label" if epoch <= config.label_loss_epochs else "tree"
        order = rng.permutation(len(train_trees))
        epoch_loss = 0.0
        for batch_id, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            grads = []
            for s in batch:
                value, grad = _sentence_pass(
                    scorer, reps[s], gold_maps[s], gold_char[s],
                    vocab, kind, config, decode_cfg, rng)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite {kind} loss in batch "
                                       f"{batch_id} of epoch {epoch}")
                epoch_loss += value
                grads.append(grad)
            scorer.sgd_step(grads, lr, count=len(batch))
            del grads, grad  # neither the next batch nor the dev pass needs them

        seg, par = _evaluate(scorer, vocab, dev_trees, decode_cfg)
        if par.f1 > best_f1:
            best_f1 = par.f1
            best_params.clear()  # the old copy goes before the new one is made
            best_params.update((k, v.copy()) for k, v in scorer.params().items())
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= config.decay_patience:
                lr *= config.decay_factor
                decays += 1
                since_improve = 0
        if history is not None:
            history.append({"epoch": epoch, "loss_kind": kind,
                            "loss": float(epoch_loss), "lr": lr,
                            "decays": decays, "dev_seg_f1": seg.f1,
                            "dev_parse_f1": par.f1})
        if decays >= config.max_decay:
            break
        if epoch_loss == 0.0:
            break

    return Checkpoint(config.scorer, best_params, vocab.labels, dim,
                      config.mlp_hidden, config.dropout, best_epoch,
                      best_f1, decays)


def evaluate_dev(checkpoint: Checkpoint, dev_corpus: Sequence) -> tuple[PRF, PRF]:
    """Decode ``dev_corpus`` with the checkpoint's parameters and score it."""
    scorer = checkpoint.build_scorer()
    return _evaluate(scorer, checkpoint.vocab, list(dev_corpus), DecodeConfig())
