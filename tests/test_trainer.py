"""Training loop: config, schedule, checkpointing."""

import hashlib
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from charspan import scoring
from charspan.chartree import to_char_tree
from charspan.scorers import LinearScorer, MLPHead
from charspan.scoring import PositionIds, build_vocab, score_spans
from charspan.synthesis import synthesize_corpus
from charspan.trainer import (Checkpoint, LINEAR_FEATURE_DIM, MLP_FEATURE_DIM,
                              TrainConfig, evaluate_dev, load_train_config,
                              parse_train_config, train)

from memcheck import traced_peak


@pytest.fixture(scope="module")
def tiny_corpus():
    return synthesize_corpus(12, seed=9, median_chars=7.0, max_chars=14)


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    config = TrainConfig(scorer="linear", learning_rate=0.5, batch_size=4,
                         label_loss_epochs=3, max_epochs=15, seed=0)
    history = []
    ckpt = train(tiny_corpus, tiny_corpus, config, history=history)
    return ckpt, history


def test_presets():
    assert LINEAR_FEATURE_DIM == 2 ** 20
    assert MLP_FEATURE_DIM == 2 ** 14
    # one learning rate for both scorers
    assert TrainConfig().learning_rate == 0.1
    assert TrainConfig(scorer="mlp").learning_rate == 0.1
    assert TrainConfig().effective_feature_dim == 2 ** 20
    assert TrainConfig(scorer="mlp").effective_feature_dim == 2 ** 14
    assert TrainConfig(feature_dim=64).effective_feature_dim == 64


def test_config_validation():
    with pytest.raises(ValueError, match="scorer"):
        TrainConfig(scorer="cnn")
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="positive"):
        TrainConfig(learning_rate=-0.1)
    for value in (0.0, -0.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            TrainConfig(learning_rate=value)
    # a factor of 1 or more would keep or raise the rate at each "decay"
    for value in (0.0, -0.5, 1.0, 7.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="decay_factor must be between 0 and 1"):
            TrainConfig(decay_factor=value)
    assert TrainConfig(decay_factor=0.999).decay_factor == 0.999
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="unknown margin mode 'bogus'"):
        TrainConfig(margin_mode="bogus")
    with pytest.raises(ValueError, match="unknown span set 'some'"):
        TrainConfig(loss_spans="some")


def test_parse_train_config():
    text = """
    # schedule
    scorer = mlp
    learning_rate = 0.05   # small
    batch_size = 8
    margin_mode = hamming
    """
    config = parse_train_config(text)
    assert config.scorer == "mlp"
    assert config.learning_rate == 0.05
    assert config.batch_size == 8
    assert config.margin_mode == "hamming"
    assert config.max_epochs == 100  # untouched default


def test_parse_train_config_base_override():
    base = TrainConfig(batch_size=16, seed=5)
    config = parse_train_config("batch_size = 2\n", base=base)
    assert config.batch_size == 2
    assert config.seed == 5


@pytest.mark.parametrize("text, message", [
    ("optimizer = adam\n", "unknown key"),
    ("batch_size\n", "key = value"),
    ("batch_size = many\n", "bad value"),
])
def test_parse_train_config_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_train_config(text)


def test_load_train_config(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("max_epochs = 7\nseed = 3\n", encoding="utf-8")
    config = load_train_config(path)
    assert config.max_epochs == 7 and config.seed == 3


def test_loss_kind_switches_after_label_epochs(trained):
    ckpt, history = trained
    kinds = {h["epoch"]: h["loss_kind"] for h in history}
    assert kinds[1] == kinds[2] == kinds[3] == "label"
    assert kinds[4] == "tree"
    assert all(k == "tree" for e, k in kinds.items() if e > 3)


def test_training_overfits_tiny_corpus(trained):
    ckpt, history = trained
    assert ckpt.best_dev_f1 == 1.0
    assert history[-1]["dev_seg_f1"] == 1.0


def test_history_records_are_complete(trained):
    _, history = trained
    keys = {"epoch", "loss_kind", "loss", "lr", "decays",
            "dev_seg_f1", "dev_parse_f1"}
    assert all(set(h) == keys for h in history)
    assert [h["epoch"] for h in history] == list(range(1, len(history) + 1))


def test_stops_on_exactly_zero_epoch_loss(trained):
    ckpt, history = trained
    # the hinge reaches exactly zero once the corpus is memorized
    assert history[-1]["loss"] == 0.0
    assert len(history) < 15


def test_decay_schedule_halves_learning_rate(tiny_corpus):
    config = TrainConfig(scorer="linear", learning_rate=0.5, batch_size=4,
                         label_loss_epochs=100, max_epochs=60,
                         decay_patience=1, max_decay=3, seed=0)
    history = []
    ckpt = train(tiny_corpus, tiny_corpus, config, history=history)
    assert history[-1]["decays"] == 3
    assert history[-1]["loss"] != 0.0  # cross-entropy never reaches zero
    assert len(history) < 60
    decayed = [h["lr"] for h in history if h["decays"] > 0]
    assert decayed[-3:] == [0.25, 0.125, 0.0625]
    assert ckpt.decays == 3


def test_best_epoch_snapshot_is_kept(trained, tiny_corpus):
    ckpt, history = trained
    by_epoch = {h["epoch"]: h["dev_parse_f1"] for h in history}
    assert by_epoch[ckpt.epoch] == ckpt.best_dev_f1
    # earlier epochs are strictly worse: the snapshot is the first best
    assert all(by_epoch[e] < ckpt.best_dev_f1 for e in by_epoch if e < ckpt.epoch)
    seg, par = evaluate_dev(ckpt, tiny_corpus)
    assert par.f1 == ckpt.best_dev_f1


def test_checkpoint_linear_round_trip(trained, tiny_corpus, tmp_path):
    ckpt, _ = trained
    path = tmp_path / "linear.npz"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.scorer_kind == "linear"
    assert loaded.labels == ckpt.labels
    assert loaded.epoch == ckpt.epoch
    assert loaded.best_dev_f1 == ckpt.best_dev_f1
    # the file keeps the nonzero rows of the table, keyed by hashed id
    nonzero = np.any(ckpt.params["rows"] != 0.0, axis=1)
    assert np.array_equal(loaded.params["keys"], ckpt.params["keys"][nonzero])
    assert np.array_equal(loaded.params["rows"], ckpt.params["rows"][nonzero])
    a = evaluate_dev(ckpt, tiny_corpus)
    b = evaluate_dev(loaded, tiny_corpus)
    assert a == b


def test_loading_linear_checkpoint_builds_no_dense_matrix(trained, tmp_path):
    ckpt, _ = trained
    assert ckpt.feature_dim == LINEAR_FEATURE_DIM
    path = tmp_path / "linear.npz"
    ckpt.save(path)
    sentence = "".join(synthesize_corpus(1, seed=2)[0].leaves())
    tracemalloc.start()  # numpy reports its array buffers here too
    try:
        loaded = Checkpoint.load(path)
        scorer = loaded.build_scorer()
        score_spans(scorer, sentence, loaded.vocab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 per feature id would already take 8 * feature_dim bytes
    assert peak < 8 * LINEAR_FEATURE_DIM
    assert len(scorer.keys) < LINEAR_FEATURE_DIM // 100


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_built_scorer_shares_the_loaded_weights(trained, tmp_path, kind):
    # one resident copy of the weights: the scorer adopts the loaded arrays
    if kind == "linear":
        ckpt, _ = trained
        names = ["rows"]
    else:
        labels = trained[0].labels
        head = MLPHead(1 << 10, len(labels), hidden=8, rng=np.random.default_rng(1))
        ckpt = Checkpoint("mlp", head.params(), labels, 1 << 10, 8, 0.2, 1, 0.0, 0)
        names = ["W1", "b1", "W2", "b2"]
    path = tmp_path / f"{kind}.npz"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    scorer = loaded.build_scorer()
    for name in names:
        assert np.shares_memory(getattr(scorer, name), loaded.params[name]), name


def test_a_batch_holds_one_gradient_per_sentence():
    # Batch-mean SGD scores every sentence of a batch before the step, so a
    # batch must keep its sentences' (S, L) score gradients until then.  It
    # must keep nothing bigger: no per-span or per-feature expansion of them
    # for the whole batch.  So ten sentences in one batch may peak above ten
    # batches of one by less than those ten gradients.
    corpus = synthesize_corpus(10, seed=3, median_chars=40.0, max_chars=48)
    num_labels = len(build_vocab([to_char_tree(t) for t in corpus]))
    spans = [n * (n + 1) // 2 for n in (len("".join(t.leaves())) for t in corpus)]
    assert 35 <= np.mean([len("".join(t.leaves())) for t in corpus]) <= 45
    peaks = {}
    for batch_size in (1, 10):
        config = TrainConfig(scorer="linear", batch_size=batch_size,
                             label_loss_epochs=1, max_epochs=1, seed=0)
        tracemalloc.start()
        try:
            train(corpus, corpus[:2], config)
            _, peaks[batch_size] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    gradients = sum(spans) * num_labels * 8
    assert peaks[10] - peaks[1] < gradients


def _traced_best_copy_run(learning_rate: float, seed: int):
    # The corpus is many short sentences, so its table dominates every
    # transient: the batch's gradients, one piece of updates, the trees
    # and the position tables.
    corpus = synthesize_corpus(320, seed=11, median_chars=4.0, max_chars=8)
    config = TrainConfig(scorer="linear", learning_rate=learning_rate,
                         batch_size=10, label_loss_epochs=2, max_epochs=4,
                         seed=seed)
    history = []
    ckpt, peak = traced_peak(lambda: train(corpus, corpus[:20], config, history))
    f1 = [h["dev_parse_f1"] for h in history]
    bests = sum(f > max(f1[:k], default=-1.0) for k, f in enumerate(f1))
    return ckpt, history, bests, peak


def test_training_keeps_one_best_copy_of_the_weights():
    # The best-dev copy lives in a temporary file, rewritten at each of at
    # least three bests, so training holds the table once; the last epoch
    # is the best, and the checkpoint takes the live arrays.
    ckpt, history, bests, peak = _traced_best_copy_run(0.5, 0)
    assert bests >= 3 and ckpt.epoch == len(history)
    table = ckpt.params["rows"].nbytes
    assert peak < table + table // 2


def test_reading_the_best_copy_back_keeps_one_table():
    # The best is epoch 3 of 4, so the copy is read back, and only after
    # the live table is dropped.
    ckpt, history, bests, peak = _traced_best_copy_run(5.0, 2)
    assert bests >= 2 and ckpt.epoch < len(history)
    table = ckpt.params["rows"].nbytes
    assert peak < table + table // 2


def test_training_peak_grows_with_the_table_once():
    # Four times the sentences make a table about 5.7 times as big; the
    # peak may grow by that growth once, plus what else grows with the
    # corpus (trees, position tables).  Holding a second copy of the table
    # doubles the growth.
    def run(sentences: int) -> tuple[int, int]:
        corpus = synthesize_corpus(sentences, seed=11, median_chars=4.0, max_chars=8)
        config = TrainConfig(scorer="linear", learning_rate=0.5, batch_size=10,
                             label_loss_epochs=2, max_epochs=2, seed=0)
        ckpt, peak = traced_peak(lambda: train(corpus, corpus[:20], config))
        return peak, ckpt.params["rows"].nbytes

    small_peak, small_table = run(100)
    large_peak, large_table = run(400)
    table_growth = large_table - small_table
    assert table_growth > 4 * small_table
    assert large_peak - small_peak < 1.2 * table_growth + (1 << 20)


def test_training_keeps_no_id_matrices(tiny_corpus, monkeypatch):
    # registering reads the sentences' position tables; backpropagating
    # builds the id rows of one sentence's gradient, and nothing keeps
    # them past the step that lands them
    built = []
    ids_of = PositionIds.ids_of

    def tracked(self, rows):
        ids = ids_of(self, rows)
        built.append(weakref.ref(ids))
        return ids

    monkeypatch.setattr(PositionIds, "ids_of", tracked)
    for cls in (LinearScorer, MLPHead):
        def checked(self, grads, lr, count=None, step=cls.sgd_step):
            # the only id rows alive are those of the batch's gradients
            assert sum(ref() is not None for ref in built) == len(grads)
            step(self, grads, lr, count)

        monkeypatch.setattr(cls, "sgd_step", checked)
    for scorer in ("linear", "mlp"):
        built.clear()
        train(tiny_corpus, tiny_corpus,
              TrainConfig(scorer=scorer, batch_size=4, label_loss_epochs=1,
                          max_epochs=2, seed=0, mlp_hidden=8, feature_dim=1 << 10))
        assert built and all(ref() is None for ref in built)


def _stored_rows_sha256(ckpt, path):
    ckpt.save(path)
    with np.load(path) as data:
        return hashlib.sha256(data["W_ids"].tobytes()
                              + data["W_rows"].tobytes()).hexdigest()


@pytest.mark.parametrize("feature_dim, sha256", [
    # the default 2^20 buckets: 945 stored rows over 9 epochs, tree epochs
    # included
    (None, "51eac4587b2bce4f09b49ef95e37438fd6dea2a345aa3d66c0bf4f512ac4691f"),
    # 64 buckets: nearly every id collides, and all 64 rows are stored
    (64, "d1fb4e0d5d8da4936f3a469accc156afb02f7c8f8aba367c55941311d3ac3613"),
])
def test_training_arithmetic_is_pinned(trained, tiny_corpus, tmp_path,
                                       feature_dim, sha256):
    # Any change to feature ids, to the order rows are summed in, or to the
    # order SGD updates land in shows up in these bytes.
    if feature_dim is None:
        ckpt, _ = trained
    else:
        ckpt = train(tiny_corpus, tiny_corpus,
                     TrainConfig(scorer="linear", learning_rate=0.5,
                                 batch_size=4, label_loss_epochs=2,
                                 max_epochs=4, seed=3,
                                 feature_dim=feature_dim))
    assert _stored_rows_sha256(ckpt, tmp_path / "m.npz") == sha256


def test_mlp_training_arithmetic_is_pinned(tiny_corpus):
    # dropout masks drawn for a whole sentence at once must be the ones
    # drawn span by span
    ckpt = train(tiny_corpus, tiny_corpus,
                 TrainConfig(scorer="mlp", learning_rate=0.05, batch_size=4,
                             label_loss_epochs=2, max_epochs=3, seed=1,
                             mlp_hidden=16, feature_dim=1 << 10))
    digest = hashlib.sha256()
    for name in sorted(ckpt.params):
        digest.update(ckpt.params[name].tobytes())
    assert digest.hexdigest() == (
        "350bc5925fb695a27f9cd06173a4e23d40c3fac4db4491cfaa179f7085ad69e8")


def _frozen_zip_clock(monkeypatch) -> None:
    # the zip entries' modification times, which zipfile takes from
    # time.localtime, are the only bytes of an .npz that depend on the clock
    frozen = time.gmtime(1_700_000_000)
    monkeypatch.setattr(time, "localtime", lambda *args: frozen)


def _checkpoint_sha256(ckpt, path, monkeypatch) -> str:
    # the saved bytes, then every returned parameter (a linear checkpoint
    # stores only the nonzero rows)
    with monkeypatch.context() as patch:
        _frozen_zip_clock(patch)
        ckpt.save(path)
    digest = hashlib.sha256(path.read_bytes())
    for name in sorted(ckpt.params):
        digest.update(ckpt.params[name].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("scorer, max_epochs, epochs_run, best_epoch", [
    # best in the last epoch run: the checkpoint adopts the live arrays
    ("linear", 6, 6, 6),
    ("mlp", 3, 3, 3),
    # the same runs going on past their best: the best copy is read back,
    # with the same bytes (the linear run stops on a zero-loss epoch)
    ("linear", 8, 7, 6),
    ("mlp", 4, 4, 3),
])
def test_best_copy_paths_are_pinned(tiny_corpus, tmp_path, monkeypatch, scorer,
                                    max_epochs, epochs_run, best_epoch):
    if scorer == "linear":
        config = TrainConfig(scorer="linear", learning_rate=0.5, batch_size=4,
                             label_loss_epochs=2, max_epochs=max_epochs, seed=3)
        sha256 = "6bdc29141e420daf71e9ad0f701ceabe4b9a86a0a18f6dd53a6e7e045a52e4c5"
    else:
        config = TrainConfig(scorer="mlp", learning_rate=0.5, batch_size=4,
                             label_loss_epochs=2, max_epochs=max_epochs, seed=0,
                             mlp_hidden=16, feature_dim=1 << 10)
        sha256 = "bdad72cf22299b1f5c0a62e05bff962e4eaafe4951197ebf4c93711e9f7c5857"
    history = []
    ckpt = train(tiny_corpus, tiny_corpus, config, history)
    assert (len(history), ckpt.epoch) == (epochs_run, best_epoch)
    assert _checkpoint_sha256(ckpt, tmp_path / "m.npz", monkeypatch) == sha256


def _savez_reference(ckpt, path) -> None:
    """``Checkpoint.save`` through ``np.savez``: the reference for the
    bytes the streamed save writes."""
    arrays = {
        "scorer_kind": np.array(ckpt.scorer_kind),
        "labels": np.array(ckpt.labels, dtype=str),
        "feature_dim": np.array(ckpt.feature_dim),
        "mlp_hidden": np.array(ckpt.mlp_hidden),
        "dropout": np.array(ckpt.dropout),
        "epoch": np.array(ckpt.epoch),
        "best_dev_f1": np.array(ckpt.best_dev_f1),
        "decays": np.array(ckpt.decays),
    }
    if ckpt.scorer_kind == "linear":
        rows = ckpt.params["rows"]
        nonzero = np.any(rows != 0.0, axis=1)
        arrays["W_ids"] = ckpt.params["keys"][nonzero]
        arrays["W_rows"] = rows[nonzero]
    else:
        for name, value in ckpt.params.items():
            arrays["p_" + name] = value
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _linear_checkpoint(rows: np.ndarray) -> Checkpoint:
    keys = np.arange(len(rows), dtype=np.int64) * 7
    labels = [f"L{k}" for k in range(rows.shape[1])]
    return Checkpoint("linear", {"keys": keys, "rows": rows}, labels,
                      LINEAR_FEATURE_DIM, 250, 0.2, 3, 0.75, 1)


def _zero_rows_in_several_pieces() -> np.ndarray:
    # 4 labels: save masks _CHUNK_VALUES // 4 rows at a time
    piece = scoring._CHUNK_VALUES // 4
    rows = np.random.default_rng(5).normal(size=(3 * piece - 100, 4))
    rows[[0, piece - 1, piece * 5 // 2, -1]] = 0.0
    rows[piece:2 * piece] = 0.0  # a whole piece of zero rows
    rows[7] = -0.0
    return rows


@pytest.mark.parametrize("make", [
    lambda: _linear_checkpoint(np.random.default_rng(4).normal(size=(3000, 4))),
    lambda: _linear_checkpoint(_zero_rows_in_several_pieces()),
    lambda: _linear_checkpoint(np.zeros((0, 4))),
    lambda: Checkpoint("mlp", MLPHead(64, 3, hidden=8,
                                      rng=np.random.default_rng(1)).params(),
                       ["A", "B", "C"], 64, 8, 0.2, 2, 0.5, 0),
], ids=["linear-all-nonzero", "linear-zero-rows", "linear-empty", "mlp"])
def test_save_writes_the_bytes_of_savez(tmp_path, monkeypatch, make):
    ckpt = make()
    _frozen_zip_clock(monkeypatch)
    ckpt.save(tmp_path / "streamed.npz")
    _savez_reference(ckpt, tmp_path / "reference.npz")
    assert ((tmp_path / "streamed.npz").read_bytes()
            == (tmp_path / "reference.npz").read_bytes())


@pytest.mark.parametrize("zero_every", [None, 7])
def test_save_copies_no_table(tmp_path, zero_every):
    # The rows are masked and written in pieces of at most _CHUNK_VALUES
    # values; neither a table-sized copy nor a table-sized mask is made,
    # and a piece takes no more memory at 1,000 labels than at 165.
    for shape in [(20_000, 165), (3_000, 1_000)]:
        rows = np.random.default_rng(6).normal(size=shape)
        if zero_every:
            rows[::zero_every] = 0.0
        ckpt = _linear_checkpoint(rows)
        _, peak = traced_peak(lambda: ckpt.save(tmp_path / "m.npz"))
        assert peak < rows.nbytes // 10, shape
        assert peak < 2 * scoring._CHUNK_VALUES * 8, shape
        with np.load(tmp_path / "m.npz") as data:
            kept = np.any(rows != 0.0, axis=1)
            assert np.array_equal(data["W_rows"], rows[kept])
            assert np.array_equal(data["W_ids"], ckpt.params["keys"][kept])


def test_checkpoint_mlp_round_trip(tiny_corpus, tmp_path):
    config = TrainConfig(scorer="mlp", learning_rate=0.05, batch_size=4,
                         label_loss_epochs=2, max_epochs=3, seed=1,
                         mlp_hidden=16, feature_dim=1 << 10)
    ckpt = train(tiny_corpus, tiny_corpus, config)
    path = tmp_path / "mlp.npz"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.scorer_kind == "mlp"
    assert sorted(loaded.params) == ["W1", "W2", "b1", "b2"]
    for name in loaded.params:
        assert np.array_equal(loaded.params[name], ckpt.params[name]), name
    assert evaluate_dev(loaded, tiny_corpus) == evaluate_dev(ckpt, tiny_corpus)


def test_vocab_property_rebuilds_vocabulary(trained):
    ckpt, _ = trained
    vocab = ckpt.vocab
    assert vocab.labels == ckpt.labels
    assert vocab.null_id == 0


def test_train_rejects_empty_corpora(tiny_corpus):
    with pytest.raises(ValueError, match="non-empty"):
        train([], tiny_corpus)
    with pytest.raises(ValueError, match="non-empty"):
        train(tiny_corpus, [])
