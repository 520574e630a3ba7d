import hashlib

import numpy as np
import pytest

from metacomment import neural, pipeline as pipeline_module
from metacomment.corpus import LabelSet
from metacomment.embeddings import (
    WordEmbeddingModel,
    WordTrainingParams,
    train_word_embeddings,
)
from metacomment.neural import (
    CnnConfig,
    NeuralError,
    build,
    forward,
    train,
)
from metacomment.textprep import TokenStream

from conftest import make_comment
from oracles import gradient_check

MARKERS = ("alpha", "beta", "gamma")
FILLERS = tuple(f"f{i}" for i in range(20))


def marker_streams(seed, n=120, length=12):
    """Binary synthetic set: positive sequences contain a run of marker tokens.

    The contiguous run gives the markers a shared co-occurrence context, so
    embeddings trained on these streams can separate them from the fillers.
    """
    rng = np.random.default_rng(seed)
    streams, labels = [], []
    for i in range(n):
        tokens = list(rng.choice(FILLERS, size=length))
        label = int(rng.random() < 0.5)
        if label:
            run = rng.choice(MARKERS, size=3)
            pos = int(rng.integers(0, length - 2))
            tokens[pos:pos + 3] = list(run)
        streams.append(TokenStream(tuple(tokens), source_id=f"s{i}"))
        labels.append(label)
    return streams, np.array(labels)


@pytest.fixture(scope="module")
def word_model():
    streams, _ = marker_streams(0, n=300)
    return train_word_embeddings(
        streams, WordTrainingParams(dim=8, window=2, min_count=1, epochs=8, seed=1))


@pytest.fixture(scope="module")
def small_config():
    return CnnConfig(max_len=16, n_filters=8, kernel_size=3, dense_units=8,
                     batch_size=16, epochs=5, learning_rate=0.01, seed=3)


class TestBuild:
    def test_embedding_rows_copied_bit_for_bit(self, word_model, small_config):
        model = build(word_model, small_config)
        for token, src_row in word_model.vocab.items():
            assert np.array_equal(model.embedding[model.vocab[token]],
                                  word_model.vectors[src_row])

    def test_padding_and_oov_rows_zero(self, word_model, small_config):
        model = build(word_model, small_config)
        assert np.array_equal(model.embedding[0], np.zeros(8))
        assert np.array_equal(model.embedding[1], np.zeros(8))

    def test_same_seed_identical_parameters(self, word_model, small_config):
        m1 = build(word_model, small_config)
        m2 = build(word_model, small_config)
        for name in ("conv_w", "conv_b", "dense_w", "dense_b", "out_w", "out_b"):
            assert np.array_equal(getattr(m1, name), getattr(m2, name))

    def test_kernel_larger_than_max_len_rejected(self):
        with pytest.raises(NeuralError, match="kernel_size"):
            CnnConfig(max_len=4, kernel_size=5)

    def test_dim_mismatch_rejected(self, word_model):
        with pytest.raises(NeuralError, match="embed_dim"):
            build(word_model, CnnConfig(max_len=16, embed_dim=300))


class TestForward:
    def test_paper_scale_shape_chain(self, word_model):
        config = CnnConfig(max_len=1000, n_filters=128, kernel_size=5,
                           dense_units=64, seed=0)
        model = build(word_model, config)
        idx = model.encode(("alpha", "beta") * 30)
        from metacomment.neural import _forward_batch
        probs, cache = _forward_batch(model, idx[None, :])
        assert cache["E"].shape == (1, 1000, 8)
        assert cache["pool_at"].shape == cache["pooled"].shape == (1, 128)
        assert cache["pool_at"].max() < 996  # 1000 - 5 + 1 conv outputs
        assert probs.shape == (1, 2)

    def test_probabilities_sum_to_one(self, word_model, small_config):
        model = build(word_model, small_config)
        rng = np.random.default_rng(0)
        for _ in range(10):
            idx = rng.integers(0, len(model.embedding), size=16)
            probs = forward(model, idx)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_all_padding_constant_output(self, word_model, small_config):
        model = build(word_model, small_config)
        p1 = forward(model, model.encode(()))
        p2 = forward(model, model.encode(()))
        assert np.array_equal(p1, p2)

    def test_tail_permutation_invariance(self, word_model, small_config):
        model = build(word_model, small_config)
        idx = model.encode(("alpha", "beta", "gamma"))
        permuted = idx.copy()
        permuted[3:] = np.random.default_rng(1).permutation(permuted[3:])
        assert np.array_equal(forward(model, idx), forward(model, permuted))

    def test_one_row_batch_keeps_its_axis(self, word_model, small_config):
        model = build(word_model, small_config)
        idx = model.encode(("alpha", "beta"))
        batch = forward(model, idx[None, :])
        assert batch.shape == (1, 2)
        assert np.array_equal(batch[0], forward(model, idx))

    def test_wrong_length_rejected(self, word_model, small_config):
        model = build(word_model, small_config)
        with pytest.raises(NeuralError, match="max_len"):
            forward(model, np.zeros(7, dtype=int))


class TestGradientCheck:
    def test_all_blocks_match_finite_differences(self, word_model):
        config = CnnConfig(max_len=8, n_filters=3, kernel_size=3, dense_units=4,
                           seed=11)
        model = build(word_model, config)
        rng = np.random.default_rng(2)
        # distinct tokens per sequence: repeated tokens can create exactly
        # tied max-pool positions, where finite differences are undefined
        idx = np.array([rng.choice(np.arange(2, len(model.embedding)), size=8,
                                   replace=False) for _ in range(3)])
        labels = np.array([0, 1, 0])
        errors = gradient_check(model, idx, labels)
        assert set(errors) == {"conv_w", "conv_b", "dense_w", "dense_b",
                               "out_w", "out_b"}
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err}"


def dense_backward(model, probs, labels, cache):
    """The reference conv backward: the gradient spread over a dense
    (batch, time, filter) array, zero except at each pooled argmax, and one
    einsum over (batch, time) per kernel offset."""
    batch = len(labels)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), labels] = 1.0
    d_z3 = (probs - one_hot) / batch
    grads = {"out_w": d_z3.T @ cache["a2"], "out_b": d_z3.sum(axis=0)}
    d_z2 = (d_z3 @ model.out_w) * (1.0 - cache["a2"] ** 2)
    grads["dense_w"] = d_z2.T @ cache["pooled"]
    grads["dense_b"] = d_z2.sum(axis=0)
    d_pool = d_z2 @ model.dense_w
    k = model.config.kernel_size
    t_out = model.config.max_len - k + 1
    E = cache["E"]
    # the forward pass's activations, recomputed with its operations
    z1 = np.broadcast_to(model.conv_b, (batch, t_out, model.config.n_filters)).copy()
    for j in range(k):
        z1 += E[:, j:j + t_out, :] @ model.conv_w[:, j, :].T
    a1 = np.tanh(z1)
    assert np.array_equal(a1.argmax(axis=1), cache["pool_at"])
    assert np.array_equal(
        np.take_along_axis(a1, cache["pool_at"][:, None, :], axis=1)[:, 0, :],
        cache["pooled"])
    d_a1 = np.zeros_like(a1)
    np.put_along_axis(d_a1, cache["pool_at"][:, None, :], d_pool[:, None, :], axis=1)
    d_z1 = d_a1 * (1.0 - a1 ** 2)
    grads["conv_w"] = np.empty_like(model.conv_w)
    for j in range(k):
        grads["conv_w"][:, j, :] = np.einsum("btf,btd->fd", d_z1, E[:, j:j + t_out, :])
    grads["conv_b"] = d_z1.sum(axis=(0, 1))
    return grads


def random_word_model(vocab_size, dim, seed):
    rng = np.random.default_rng(seed)
    vocab = {f"w{i}": i for i in range(vocab_size)}
    return WordEmbeddingModel(vocab, rng.normal(scale=0.3, size=(vocab_size, dim)),
                              np.zeros((vocab_size, dim)), np.ones(vocab_size),
                              WordTrainingParams(dim=dim, min_count=1))


def padded_batch(rng, model, batch, min_len=0):
    """Index rows of random length in [min_len, max_len], post-padded."""
    max_len = model.config.max_len
    idx = np.zeros((batch, max_len), dtype=np.int64)
    for row in range(batch):
        length = int(rng.integers(min_len, max_len + 1))
        idx[row, :length] = rng.integers(1, len(model.embedding), size=length)
    return idx


class TestPooledBackward:
    """_backward_batch against dense_backward, bit for bit. Dropping the
    unpooled steps drops only exact-zero products from each sum, and the
    pooled terms are added in the same batch order.

    One exception: with a single filter, numpy sums dense_backward's
    (batch, time) array pairwise, in blocks that mix in the zeros, while
    the pooled path adds its batch terms in a different grouping. conv_b
    then differs in the last bits (about 1e-19 on gradients near 1e-5), so
    it is held to 1e-12 there."""

    def assert_matches_dense(self, model, idx, labels):
        probs, cache = neural._forward_batch(model, idx)
        grads = neural._backward_batch(model, probs, labels, cache)
        reference = dense_backward(model, probs, labels, cache)
        assert set(grads) == set(neural.TRAINABLE_BLOCKS)
        for name in neural.TRAINABLE_BLOCKS:
            if name == "conv_b" and model.config.n_filters == 1:
                assert np.abs(grads[name] - reference[name]).max() <= 1e-12
            else:
                assert np.array_equal(grads[name], reference[name]), name
        return cache

    def test_random_batches(self):
        rng = np.random.default_rng(0)
        for trial, n_filters in enumerate((1, 2, 3, 5, 8, 16) * 4):
            config = CnnConfig(max_len=int(rng.integers(3, 30)), n_filters=n_filters,
                               kernel_size=int(rng.integers(1, 4)), dense_units=5,
                               seed=trial)
            model = build(random_word_model(40, int(rng.integers(1, 33)), trial), config)
            batch = int(rng.integers(2, 70))
            self.assert_matches_dense(model, padded_batch(rng, model, batch),
                                      rng.integers(0, 2, size=batch))

    def test_all_padding_rows_tie_at_step_zero(self):
        model = build(random_word_model(40, 6, 1),
                      CnnConfig(max_len=12, n_filters=7, kernel_size=3, dense_units=5, seed=2))
        rng = np.random.default_rng(3)
        idx = padded_batch(rng, model, 9, min_len=1)
        idx[[0, 4, 8]] = 0
        cache = self.assert_matches_dense(model, idx, np.array([0, 1] * 4 + [1]))
        assert not cache["pool_at"][[0, 4, 8]].any()

    def test_kernel_as_long_as_the_sequence(self):
        model = build(random_word_model(40, 6, 4),
                      CnnConfig(max_len=5, n_filters=4, kernel_size=5, dense_units=3, seed=5))
        idx = padded_batch(np.random.default_rng(6), model, 11)
        cache = self.assert_matches_dense(model, idx, np.arange(11) % 2)
        assert not cache["pool_at"].any()  # one conv output per filter

    def test_batch_of_one(self):
        model = build(random_word_model(40, 6, 7),
                      CnnConfig(max_len=10, n_filters=6, kernel_size=2, dense_units=4, seed=8))
        rng = np.random.default_rng(9)
        for label in (0, 1):
            self.assert_matches_dense(model, padded_batch(rng, model, 1, min_len=1),
                                      np.array([label]))

    def test_training_run_matches_dense_path(self, monkeypatch):
        # the benchmark's CNN shape: 480 comments x 40 tokens, 16 filters of
        # width 3 over 32-dimensional embeddings, 25 epochs
        config = CnnConfig(max_len=40, n_filters=16, kernel_size=3, dense_units=16,
                           batch_size=32, epochs=25, learning_rate=0.003, seed=5)
        word_model = random_word_model(200, 32, 10)
        rng = np.random.default_rng(11)
        idx = padded_batch(rng, build(word_model, config), 480)
        labels = rng.integers(0, 2, size=480)
        pooled_model = build(word_model, config)
        pooled_history = train(pooled_model, idx, labels)
        monkeypatch.setattr(neural, "_backward_batch", dense_backward)
        dense_model = build(word_model, config)
        assert train(dense_model, idx, labels) == pooled_history
        for name in neural.TRAINABLE_BLOCKS:
            assert np.array_equal(getattr(pooled_model, name), getattr(dense_model, name)), name


class TestTraining:
    def test_embedding_frozen(self, word_model, small_config):
        model = build(word_model, small_config)
        streams, labels = marker_streams(5)
        idx = np.array([model.encode(ts.tokens) for ts in streams])
        before = hashlib.sha256(model.embedding.tobytes()).hexdigest()
        train(model, idx, labels)
        assert hashlib.sha256(model.embedding.tobytes()).hexdigest() == before

    def test_learns_marker_classes(self, word_model, small_config):
        model = build(word_model, small_config)
        streams, labels = marker_streams(6, n=160)
        idx = np.array([model.encode(ts.tokens) for ts in streams])
        train(model, idx, labels)
        probs = forward(model, idx)
        accuracy = float((probs.argmax(axis=1) == labels).mean())
        assert accuracy >= 0.95

    def test_loss_non_increasing_within_band(self, word_model, small_config):
        model = build(word_model, small_config)
        streams, labels = marker_streams(7, n=160)
        idx = np.array([model.encode(ts.tokens) for ts in streams])
        history = train(model, idx, labels)
        assert len(history) == small_config.epochs
        for before, after in zip(history, history[1:]):
            assert after <= before * 1.05

    def test_deterministic_given_seed(self, word_model, small_config):
        streams, labels = marker_streams(8)
        results = []
        for _ in range(2):
            model = build(word_model, small_config)
            idx = np.array([model.encode(ts.tokens) for ts in streams])
            train(model, idx, labels)
            results.append(model.conv_w.copy())
        assert np.array_equal(results[0], results[1])

    def test_empty_dataset_error(self, word_model, small_config):
        model = build(word_model, small_config)
        with pytest.raises(NeuralError, match="empty"):
            train(model, [], [])

    def test_single_class_error(self, word_model, small_config):
        model = build(word_model, small_config)
        idx = np.zeros((4, 16), dtype=int)
        with pytest.raises(NeuralError, match="both classes"):
            train(model, idx, [1, 1, 1, 1])


def test_cnn_pipeline_fit_goes_through_neural_train(monkeypatch, word_model, small_config):
    # the benchmark's trace times the CNN fit by rebinding neural.train
    # wherever the package holds it, as done here
    calls = []
    original = neural.train

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    for module in (neural, pipeline_module):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, spy)
    streams, labels = marker_streams(12, n=40)
    entries = [(make_comment(ts.source_id, text=" ".join(ts.tokens)), LabelSet())
               for ts in streams]
    pipeline_module.CnnPipeline(word_model, small_config).fit(entries, labels)
    assert calls == [40]
