"""Mini-batch training with the two-phase loss schedule.

Epochs 1..label_loss_epochs use the per-span cross-entropy, the rest the
structured hinge.  After every epoch the dev set is decoded and parse F1
drives the schedule: no improvement for ``decay_patience`` consecutive
epochs halves the learning rate (times ``decay_factor``), and training
stops after ``max_decay`` decays, at the epoch cap, or when an epoch's
loss hits exactly zero (no gradient can flow anymore).  The best-dev
parameters are returned.

The optimizer is plain mini-batch SGD on the batch mean.

``TrainConfig`` is the one declaration of the training settings.
``SETTINGS`` reads each field's cast from its annotation and its allowed
values from ``SCORERS``, ``MARGIN_MODES`` and ``SPAN_SETS``; the
config-file keys (``parse_train_config``) and the ``train`` flags of the
command line are its keys, so a new field is a new key and a new flag.

Training holds the weight table once.  The best-dev copy lives in an
unnamed temporary file in ``tempfile``'s default directory, rewritten in
place at each improvement; when the best epoch is the last one run the
checkpoint adopts the live arrays, and otherwise the scorer's arrays are
dropped before the copy is read back.  ``Checkpoint.save`` streams each
array into the ``.npz`` without copying it, masking a linear table's zero
rows in pieces of at most ``scoring._CHUNK_VALUES`` values, the budget
that also sizes ``sgd_step``'s pieces.  Training 960 synthetic
sentences (a 310 MB table) and saving the checkpoint peaked at 383 MB of
RSS, against 678 MB with an in-memory best copy (``BENCH_19.json``), with
the temporary directory on disk; on a tmpfs the file is memory too.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from typing import Sequence, get_args, get_type_hints

import numpy as np

from .chartree import (from_char_tree, gold_span_labels, segmentation_of,
                       to_char_tree)
# cky_decode stays bound here: perfbench/test_prepare.py checks that the
# benchmark's tracer wraps it under this name too
from .decoder import DecodeConfig, cky_decode, decode_sentence  # noqa: F401
from .losses import MARGIN_MODES, SPAN_SETS, label_loss, tree_loss
from .metrics import PRF, parse_f1, seg_f1
from . import scoring
from .scorers import LinearScorer, MLPHead, check_keys
from .scoring import LabelVocab, SpanScores, build_vocab, span_representation
from .treebank import DataError, decode_text

SCORERS = ("linear", "mlp")

LINEAR_FEATURE_DIM = 1 << 20
MLP_FEATURE_DIM = 1 << 14  # keeps MLP checkpoints at tens of megabytes


@dataclass
class TrainConfig:
    scorer: str = "linear"              # one of SCORERS
    learning_rate: float = 0.1
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
        if self.scorer not in SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")
        for name in ("decay_patience", "max_decay", "batch_size",
                     "label_loss_epochs", "max_epochs", "mlp_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # NaN fails every comparison, so both tests are written to pass
        # only the values in range
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0 < self.decay_factor < 1:
            raise ValueError("decay_factor must be between 0 and 1, exclusive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.margin_mode not in MARGIN_MODES:
            raise ValueError(f"unknown margin mode {self.margin_mode!r}")
        if self.loss_spans not in SPAN_SETS:
            raise ValueError(f"unknown span set {self.loss_spans!r}")

    @property
    def effective_feature_dim(self) -> int:
        if self.feature_dim is not None:
            return self.feature_dim
        return MLP_FEATURE_DIM if self.scorer == "mlp" else LINEAR_FEATURE_DIM


def _settings() -> dict[str, tuple[type, tuple | None]]:
    choices = {"scorer": SCORERS, "margin_mode": MARGIN_MODES, "loss_spans": SPAN_SETS}
    settings = {}
    for name, hint in get_type_hints(TrainConfig).items():
        # the cast of an ``X | None`` field is X
        cast, = [t for t in get_args(hint) or (hint,) if t is not type(None)]
        settings[name] = (cast, choices.get(name))
    return settings


# each TrainConfig field, in order, with its cast and its allowed values
# (None: any value of the cast): the config-file keys and the train flags
SETTINGS = _settings()


def parse_train_config(text: str, base: TrainConfig | None = None,
                       path=None) -> TrainConfig:
    """key = value lines, '#' comments; unknown keys rejected.  A bad line
    raises DataError naming ``path`` and the line."""
    config = base or TrainConfig()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError("expected key = value", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SETTINGS:
            raise DataError(f"unknown key {key!r}", path, lineno)
        try:
            value = SETTINGS[key][0](value)
        except ValueError:
            raise DataError(f"bad value {value!r} for {key!r}", path, lineno) from None
        try:  # each value is checked on its line
            config = replace(config, **{key: value})
        except ValueError as e:
            raise DataError(str(e), path, lineno) from None
    return config


def load_train_config(path) -> TrainConfig:
    with open(path, "rb") as f:
        return parse_train_config(decode_text(f.read(), path), path=path)


def _build_scorer(kind: str, dim: int, num_labels: int, hidden: int, dropout: float,
                  rng: np.random.Generator | None = None,
                  params: dict[str, np.ndarray] | None = None):
    """The ``kind`` scorer of these sizes: new, with an MLP's weights drawn
    from ``rng``, or adopting the arrays ``params``."""
    if kind == "linear":
        return LinearScorer(dim, num_labels, **(params or {}))
    return MLPHead(dim, num_labels, hidden, dropout, rng=rng, params=params)


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
        return _build_scorer(self.scorer_kind, self.feature_dim, len(self.labels),
                             self.mlp_hidden, self.dropout, params=self.params)

    def save(self, path) -> None:
        """Write the bytes ``np.savez(f, **arrays)`` writes, one array at a
        time and without copying the weights: a linear table is stored as
        its nonzero rows keyed by hashed id (``W_ids``, ``W_rows``), masked
        and written in pieces of as many rows as fit in
        ``scoring._CHUNK_VALUES`` values, and at least one."""
        import zipfile  # as in np.savez: importing the trainer needs none

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
        with open(path, "wb") as f, zipfile.ZipFile(
                f, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name, value in arrays.items():
                _write_npy(zf, name, value)
            if self.scorer_kind == "linear":
                keys, rows = self.params["keys"], self.params["rows"]
                step = max(1, scoring._CHUNK_VALUES // rows.shape[1])
                nonzero = np.empty(len(rows), dtype=bool)
                for start in range(0, len(rows), step):
                    piece = rows[start:start + step]
                    np.any(piece != 0.0, axis=1, out=nonzero[start:start + len(piece)])
                ids = keys[nonzero]
                pieces = (rows[start:start + step][nonzero[start:start + step]]
                          for start in range(0, len(rows), step))
                _write_npy(zf, "W_ids", ids)
                _write_npy(zf, "W_rows", rows, (len(ids), rows.shape[1]), pieces)
            else:
                for name, value in self.params.items():
                    _write_npy(zf, "p_" + name, value)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; a missing array, one of the wrong shape,
        ``labels`` that repeat a label or do not start with the null label,
        linear ``W_ids`` that are not strictly increasing integer ids below
        ``feature_dim``, weights (``W_rows``, ``p_*``) that are not floats or
        not all finite, an unknown scorer kind, or a scalar out of range
        (``feature_dim``, ``mlp_hidden`` integers from 1, ``epoch``,
        ``decays`` from 0, ``dropout`` in [0, 1), ``best_dev_f1`` finite)
        raises DataError naming ``path``, and so does a file that cannot be
        read as an ``.npz`` archive (cut short, damaged, empty, or not one)."""
        import tokenize
        import zipfile  # as in np.load: importing the trainer needs none
        import zlib

        # a file that cannot be opened raises OSError, with its name; np.load
        # would read one that is not a zip archive as an array or a pickle
        with open(path, "rb") as f:
            if f.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):
                raise DataError("cannot read the checkpoint: not an .npz archive", path)
        # what zipfile, zlib and numpy's format reader raise on damaged bytes,
        # such as OSError (a bad seek) or TokenError and SyntaxError (a header)
        damaged = (zipfile.BadZipFile, zlib.error, ValueError, EOFError, NotImplementedError,
                   RuntimeError, OSError, SyntaxError, tokenize.TokenError)
        try:
            data = np.load(path, allow_pickle=False)
        except damaged as e:
            raise DataError(f"cannot read the checkpoint: {e}", path) from None
        with data:
            def array(name: str, shape: tuple, cast=np.asarray):
                # None in ``shape`` matches any length; ``cast`` makes the value
                if name not in data.files:
                    raise DataError(f"checkpoint has no {name!r} array", path)
                try:
                    value = data[name]
                except damaged as e:
                    raise DataError(f"cannot read checkpoint array {name!r}: {e}",
                                    path) from None
                if value.ndim != len(shape) or any(
                        want not in (None, got) for want, got in zip(shape, value.shape)):
                    raise DataError(f"checkpoint array {name!r} has shape "
                                    f"{value.shape}, expected {shape}", path)
                try:
                    return cast(value)
                except (TypeError, ValueError, OverflowError) as e:  # int('x'), int(nan)
                    raise DataError(f"checkpoint array {name!r}: {e}", path) from None

            def weights(name: str, shape: tuple) -> np.ndarray:
                value = array(name, shape)
                if not np.issubdtype(value.dtype, np.floating):
                    raise DataError(f"checkpoint array {name!r} has dtype "
                                    f"{value.dtype}, expected floats", path)
                # a NaN or an infinity shows in the minimum or the maximum,
                # and neither makes a temporary array
                if value.size and not (np.isfinite(value.min()) and np.isfinite(value.max())):
                    at = tuple(int(i) for i in np.argwhere(~np.isfinite(value))[0])
                    raise DataError(f"checkpoint array {name!r} has the non-finite "
                                    f"value {value[at]} at {at}", path)
                return value

            kind = array("scorer_kind", (), str)
            labels = [str(x) for x in array("labels", (None,))]
            try:
                LabelVocab(labels)
            except ValueError as e:
                raise DataError(f"checkpoint array 'labels': {e}", path) from None
            dim = array("feature_dim", (), _whole(1))
            hidden = array("mlp_hidden", (), _whole(1))
            if kind == "linear":
                keys = array("W_ids", (None,))
                if not np.issubdtype(keys.dtype, np.integer):
                    raise DataError(f"checkpoint array 'W_ids' has dtype "
                                    f"{keys.dtype}, expected integers", path)
                keys = keys.astype(np.int64, copy=False)
                try:
                    check_keys(keys, dim)
                except ValueError as e:
                    raise DataError(f"checkpoint array 'W_ids': {e}", path) from None
                params = {"keys": keys,
                          "rows": weights("W_rows", (len(keys), len(labels)))}
            elif kind == "mlp":
                shapes = MLPHead.param_shapes(dim, len(labels), hidden)
                params = {name: weights("p_" + name, shape)
                          for name, shape in shapes.items()}
            else:
                raise DataError(f"unknown scorer kind {kind!r}", path)
            return cls(kind, params, labels, dim, hidden,
                       array("dropout", (), _rate), array("epoch", (), _whole(0)),
                       array("best_dev_f1", (), _finite), array("decays", (), _whole(0)))


def _whole(low: int):
    """The cast of a checkpoint scalar to an integer of at least ``low``:
    any other value, 1.5 included, raises ValueError."""
    def cast(value: np.ndarray) -> int:
        number = int(value)
        if number < low or (value.dtype.kind not in "iu" and float(value) != number):
            raise ValueError(f"{value} is not an integer of at least {low}")
        return number
    return cast


def _rate(value: np.ndarray) -> float:
    if not 0.0 <= float(value) < 1.0:  # NaN too
        raise ValueError(f"{value} is not in [0, 1)")
    return float(value)


def _finite(value: np.ndarray) -> float:
    if not np.isfinite(float(value)):
        raise ValueError(f"{value} is not finite")
    return float(value)


def _write_npy(zf, name: str, array: np.ndarray, shape: tuple | None = None,
               pieces=None) -> None:
    """Add ``name``.npy to the open zip file ``zf`` as ``np.savez`` does: a
    version 1.0 header, then the array's bytes in its own order.  Given
    ``shape``, the header says ``array``'s dtype in that shape and the data
    are the C-order arrays ``pieces``, written as they come."""
    array = np.asanyarray(array)
    if shape is None:
        header = np.lib.format.header_data_from_array_1_0(array)
        # a Fortran-order array is stored as its transpose's bytes
        pieces = [array.T if header["fortran_order"] else array]
    else:
        header = {"descr": np.lib.format.dtype_to_descr(array.dtype),
                  "fortran_order": False, "shape": shape}
    with zf.open(name + ".npy", "w", force_zip64=True) as f:
        np.lib.format.write_array_header_1_0(f, header)
        for piece in pieces:
            f.write(memoryview(np.ascontiguousarray(piece)))
            del piece  # not held while the next piece is made


def _write_params(f, params: dict[str, np.ndarray]) -> list[tuple]:
    """Write the bytes of ``params`` from the start of ``f``, without
    copying them; returns the (name, dtype, shape) of each, in order."""
    f.seek(0)
    for value in params.values():
        f.write(memoryview(value))
    return [(name, value.dtype, value.shape) for name, value in params.items()]


def _read_params(f, layout: list[tuple]) -> dict[str, np.ndarray]:
    """The arrays ``_write_params`` wrote to ``f`` with ``layout``, read
    into fresh arrays."""
    f.seek(0)
    params = {}
    for name, dtype, shape in layout:
        value = np.empty(shape, dtype)
        if f.readinto(memoryview(value)) != value.nbytes:
            raise RuntimeError(f"the best-dev copy of {name!r} came back short")
        params[name] = value
    return params


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
    scorer = _build_scorer(config.scorer, dim, len(vocab), config.mlp_hidden,
                           config.dropout, rng)
    decode_cfg = DecodeConfig()
    # per sentence, the position id tables of its features
    reps = [span_representation(chars, dim) for chars in sentences]
    if config.scorer == "linear":
        # every row SGD will update exists before the first step; the
        # position tables hold the ids of all spans of their sentence
        scorer.register(np.concatenate([table.ravel() for rep in reps
                                        for table in rep]))

    lr = config.learning_rate
    # dev F1 is never NaN, so epoch 1 always beats -1 and writes best_layout
    best_f1 = -1.0
    best_layout: list[tuple] = []
    best_epoch = 0
    decays = 0
    since_improve = 0

    # the best-dev parameters, rewritten in place at each improvement
    with tempfile.TemporaryFile() as best_file:
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
                best_layout = _write_params(best_file, scorer.params())
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

        if best_epoch == epoch:
            best_params = scorer.params()  # the live arrays are the best ones
        else:
            del scorer  # the live table goes before the best copy comes back
            best_params = _read_params(best_file, best_layout)

    return Checkpoint(config.scorer, best_params, vocab.labels, dim,
                      config.mlp_hidden, config.dropout, best_epoch,
                      best_f1, decays)


def evaluate_dev(checkpoint: Checkpoint, dev_corpus: Sequence) -> tuple[PRF, PRF]:
    """Decode ``dev_corpus`` with the checkpoint's parameters and score it."""
    scorer = checkpoint.build_scorer()
    return _evaluate(scorer, checkpoint.vocab, list(dev_corpus), DecodeConfig())
