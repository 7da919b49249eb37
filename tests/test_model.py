"""Toy classifier: forward pass, analytic gradient, training, checkpoints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance, make_random_model
from minfeat import build_toy_corpus, tokenize
from minfeat.errors import ConfigError, InputError, NumericError
from minfeat.model import (
    PAD_TOKEN,
    Instance,
    Model,
    TrainConfig,
    Vocabulary,
    _init_model,
    embed,
    instance_from_words,
    load_model,
    pad_positions,
    save_model,
    train_toy,
)


def central_difference_gradient(model, embeddings: np.ndarray, target: int, h: float = 1e-5) -> np.ndarray:
    """Finite-difference oracle for the analytic input gradient."""
    x = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            plus = x.copy()
            plus[i, j] += h
            minus = x.copy()
            minus[i, j] -= h
            grad[i, j] = (model.forward(plus)[target] - model.forward(minus)[target]) / (2 * h)
    return grad


def reference_train(examples, config: TrainConfig, embed_dim: int = 16, hidden_dim: int = 16) -> Model:
    """Per-example minibatch SGD, the loop form of train_toy.

    Same initialization, draw order and update rule; each example runs its
    own forward and backward pass into five zero-filled accumulators.
    """
    labels = [label for _, label in examples]
    vocab = Vocabulary.build([toks for toks, _ in examples], embed_dim)
    rng = np.random.default_rng(config.seed)
    model = _init_model(vocab, hidden_dim, max(max(labels) + 1, 2), rng)
    max_len = max(len(toks) for toks, _ in examples)
    token_ids = [
        np.asarray(
            [vocab.token_to_index[t] for t in toks] + [vocab.pad_index] * (max_len - len(toks)),
            dtype=np.intp,
        )
        for toks, _ in examples
    ]
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_emb = np.zeros_like(model.embedding)
            grad_w1 = np.zeros_like(model.w1)
            grad_b1 = np.zeros_like(model.b1)
            grad_w2 = np.zeros_like(model.w2)
            grad_b2 = np.zeros_like(model.b2)
            for idx in batch:
                ids = token_ids[idx]
                pooled = model.embedding[ids].mean(axis=0)
                hidden = np.tanh(model.w1 @ pooled + model.b1)
                logits = model.w2 @ hidden + model.b2
                probs = np.exp(logits - logits.max())
                probs /= probs.sum()
                delta = probs.copy()
                delta[labels[idx]] -= 1.0
                grad_w2 += np.outer(delta, hidden)
                grad_b2 += delta
                grad_pre = (model.w2.T @ delta) * (1.0 - hidden**2)
                grad_w1 += np.outer(grad_pre, pooled)
                grad_b1 += grad_pre
                np.add.at(grad_emb, ids, (model.w1.T @ grad_pre) / len(ids))
            scale = config.learning_rate / len(batch)
            model.embedding -= scale * grad_emb
            model.w1 -= scale * grad_w1
            model.b1 -= scale * grad_b1
            model.w2 -= scale * grad_w2
            model.b2 -= scale * grad_b2
    return model


class TestVocabulary:
    def test_build_puts_pad_first_and_sorts_words(self):
        vocab = Vocabulary.build([["b", "a"], ["c", "a"]], embed_dim=4)
        assert vocab.token_to_index[PAD_TOKEN] == 0
        assert vocab.pad_index == 0
        assert [w for w, _ in sorted(vocab.token_to_index.items(), key=lambda kv: kv[1])] == [
            PAD_TOKEN,
            "a",
            "b",
            "c",
        ]

    def test_build_is_order_insensitive(self):
        a = Vocabulary.build([["x", "y", "z"]], embed_dim=3)
        b = Vocabulary.build([["z"], ["y", "x"]], embed_dim=3)
        assert a.token_to_index == b.token_to_index

    def test_index_or_pad_falls_back(self):
        vocab = Vocabulary.build([["a"]], embed_dim=2)
        assert vocab.index_or_pad("a") == 1
        assert vocab.index_or_pad("missing") == vocab.pad_index

    def test_sparse_indices_rejected(self):
        with pytest.raises(InputError):
            Vocabulary(token_to_index={PAD_TOKEN: 0, "a": 2}, pad_index=0, embed_dim=2)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(InputError):
            Vocabulary(token_to_index={PAD_TOKEN: 0}, pad_index=0, embed_dim=0)


class TestEmbed:
    def test_masked_rows_get_pad_embedding(self):
        table = np.arange(12, dtype=np.float64).reshape(4, 3)
        rows = embed(table, 0, [2, 3, 1], pad_mask=[False, True, False])
        assert np.array_equal(rows[0], table[2])
        assert np.array_equal(rows[1], table[0])
        assert np.array_equal(rows[2], table[1])

    def test_out_of_range_token_rejected(self):
        table = np.zeros((3, 2))
        with pytest.raises(InputError):
            embed(table, 0, [0, 3])
        with pytest.raises(InputError):
            embed(table, 0, [-1])

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            embed(np.zeros((3, 2)), 0, [])

    def test_mask_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            embed(np.zeros((3, 2)), 0, [1, 2], pad_mask=[True])

    def test_returns_copy(self):
        table = np.ones((2, 2))
        rows = embed(table, 0, [1, 1])
        rows[0, 0] = 99.0
        assert table[1, 0] == 1.0


class TestForward:
    def test_probabilities_normalized(self):
        model = make_random_model(0)
        inst = make_random_instance(model, 1)
        probs = model.forward(inst.embeddings)
        assert probs.shape == (2,)
        assert np.all(probs > 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_softmax_stable_for_large_logits(self):
        model = make_random_model(2)
        big = 1e3 * np.ones((4, model.embed_dim))
        probs = model.forward(big)
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_shape_mismatch_rejected(self):
        model = make_random_model(3)
        with pytest.raises(InputError):
            model.forward(np.zeros((4, model.embed_dim + 1)))

    def test_non_finite_input_rejected(self):
        model = make_random_model(4)
        bad = np.zeros((3, model.embed_dim))
        bad[1, 0] = np.nan
        with pytest.raises(NumericError):
            model.forward(bad)

    def test_predicted_class_tie_goes_to_lower_index(self):
        vocab = Vocabulary.build([["a"]], embed_dim=2)
        model = Model(
            vocab=vocab,
            embedding=np.zeros((2, 2)),
            w1=np.zeros((3, 2)),
            b1=np.zeros(3),
            w2=np.zeros((2, 3)),
            b2=np.zeros(2),
        )
        assert model.predicted_class(np.zeros((5, 2))) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_probabilities_valid_for_random_models(self, seed):
        model = make_random_model(seed)
        inst = make_random_instance(model, seed + 1)
        probs = model.forward(inst.embeddings)
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12


class TestInputGradient:
    def test_matches_central_differences(self):
        for seed in range(8):
            model = make_random_model(seed)
            inst = make_random_instance(model, seed + 100)
            for target in (0, 1):
                analytic = model.input_gradient(inst.embeddings, target)
                numeric = central_difference_gradient(model, inst.embeddings, target)
                scale = max(float(np.abs(numeric).max()), 1e-8)
                assert np.abs(analytic - numeric).max() / scale < 1e-4

    def test_rows_identical_under_mean_pooling(self):
        # Mean pooling makes the gradient position independent.
        model = make_random_model(5)
        inst = make_random_instance(model, 6, length=5)
        grad = model.input_gradient(inst.embeddings, 1)
        assert np.allclose(grad, grad[0][None, :], atol=0, rtol=0)

    def test_gradients_of_both_classes_cancel(self):
        # With two classes p0 + p1 = 1, so the gradients are opposite.
        model = make_random_model(7)
        inst = make_random_instance(model, 8)
        g0 = model.input_gradient(inst.embeddings, 0)
        g1 = model.input_gradient(inst.embeddings, 1)
        assert np.abs(g0 + g1).max() < 1e-12

    def test_bad_class_index_rejected(self):
        model = make_random_model(9)
        inst = make_random_instance(model, 10)
        stack = np.stack([inst.embeddings] * 3)
        for embeddings in (inst.embeddings, stack):
            with pytest.raises(InputError):
                model.input_gradient(embeddings, 2)
            with pytest.raises(InputError):
                model.input_gradient(embeddings, -1)

    def test_stack_matches_separate_calls(self):
        # Batched matrix products round differently from per-sentence ones,
        # so equality holds to a few ulps rather than bit for bit.
        rng = np.random.default_rng(31)
        for seed in range(4):
            model = make_random_model(seed)
            stack = rng.normal(0.0, 1.0, size=(7, 6, model.embed_dim))
            for target in (0, 1):
                batched = model.input_gradient(stack, target)
                assert batched.shape == stack.shape
                separate = np.stack([model.input_gradient(x, target) for x in stack])
                assert np.abs(batched - separate).max() <= 1e-15

    def test_non_finite_anywhere_in_stack_rejected(self):
        model = make_random_model(11)
        stack = np.zeros((4, 3, model.embed_dim))
        stack[3, 2, 1] = np.nan
        with pytest.raises(NumericError):
            model.input_gradient(stack, 0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (2, 3, 6), (1, 2, 3, 5), (3, 4)])
    def test_bad_shape_rejected(self, shape):
        model = make_random_model(12)  # embed_dim 5
        with pytest.raises(InputError):
            model.input_gradient(np.zeros(shape), 0)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 80
        assert cfg.batch_size == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": -0.1},
            {"epochs": 0},
            {"batch_size": 0},
            {"seed": -1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"seed": 2**64},
            {"epochs": 2.5},
            {"batch_size": 2.5},
            {"seed": 1.5},
            {"learning_rate": True},
            {"learning_rate": 10**400},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**kwargs)


class TestTrainToy:
    def test_deterministic_per_seed(self):
        examples = [(["good", "fine"], 1), (["bad", "poor"], 0)] * 8
        cfg = TrainConfig(epochs=5, seed=3)
        a = train_toy(examples, cfg)
        b = train_toy(examples, cfg)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_different_seed_differs(self):
        examples = [(["good", "fine"], 1), (["bad", "poor"], 0)] * 8
        a = train_toy(examples, TrainConfig(epochs=2, seed=1))
        b = train_toy(examples, TrainConfig(epochs=2, seed=2))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_zero_learning_rate_keeps_initialization(self):
        examples = [(["up"], 1), (["down"], 0)]
        frozen = train_toy(examples, TrainConfig(learning_rate=0.0, epochs=3, seed=5))
        fresh = train_toy(examples, TrainConfig(learning_rate=0.0, epochs=1, seed=5))
        assert np.array_equal(frozen.embedding, fresh.embedding)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            train_toy([], TrainConfig())

    def test_negative_label_rejected(self):
        with pytest.raises(InputError):
            train_toy([(["a"], -1)], TrainConfig())

    @pytest.mark.parametrize(
        "examples, config",
        [
            (
                [(tokenize(r.text), r.label) for r in build_toy_corpus()],
                TrainConfig(epochs=3),
            ),
            (
                # Mixed lengths pad the short rows, and one sentence repeats
                # a word, so a batch gathers the same id more than once.
                [
                    (["good", "good", "fine"], 1),
                    (["bad"], 0),
                    (["poor", "bad", "awful", "dull", "bad"], 0),
                    (["fine", "great"], 1),
                    (["awful", "poor", "dull"], 0),
                    (["great", "good", "fine", "good"], 1),
                    (["dull"], 0),
                ],
                TrainConfig(epochs=6, batch_size=3, seed=9),
            ),
        ],
        ids=["bundled-corpus", "mixed-lengths"],
    )
    def test_matches_per_example_reference(self, examples, config):
        trained = train_toy(examples, config)
        reference = reference_train(examples, config)
        assert trained.vocab == reference.vocab
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            assert np.abs(getattr(trained, name) - getattr(reference, name)).max() <= 1e-12, name

    def test_separates_bundled_corpus(self, toy_model, toy_corpus):
        from minfeat.model import training_accuracy

        examples = [(tokenize(r.text), r.label) for r in toy_corpus]
        assert training_accuracy(toy_model, examples) >= 0.95


class TestInstances:
    def test_oov_words_become_padded_positions(self, toy_model):
        inst, oov = instance_from_words(toy_model, ["good", "zzz-unknown", "bad"], 1)
        assert oov == 1
        assert inst.pad_mask.tolist() == [False, True, False]
        pad_row = toy_model.embedding[toy_model.vocab.pad_index]
        assert np.array_equal(inst.embeddings[1], pad_row)

    def test_pad_positions_idempotent(self, toy_model):
        inst, _ = instance_from_words(toy_model, ["good", "bad", "movie"], 1)
        once = pad_positions(toy_model, inst, [1])
        twice = pad_positions(toy_model, once, [1])
        assert np.array_equal(once.embeddings, twice.embeddings)
        assert np.array_equal(once.pad_mask, twice.pad_mask)

    def test_pad_positions_out_of_range(self, toy_model):
        inst, _ = instance_from_words(toy_model, ["good"], 1)
        with pytest.raises(InputError):
            pad_positions(toy_model, inst, [1])
        with pytest.raises(InputError):
            pad_positions(toy_model, inst, [-1])

    def test_empty_instance_rejected(self):
        with pytest.raises(InputError):
            Instance(tokens=(), embeddings=np.zeros((0, 2)), label=0, pad_mask=np.zeros(0, dtype=bool))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            Instance(tokens=(1, 2), embeddings=np.zeros((3, 2)), label=0, pad_mask=np.zeros(2, dtype=bool))


class TestCheckpointIO:
    def test_round_trip_preserves_behavior(self, toy_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(toy_model, str(path))
        loaded = load_model(str(path))
        assert loaded.vocab.token_to_index == toy_model.vocab.token_to_index
        assert np.array_equal(loaded.embedding, toy_model.embedding)
        inst, _ = instance_from_words(toy_model, ["good", "bad"], 1)
        assert np.array_equal(loaded.forward(inst.embeddings), toy_model.forward(inst.embeddings))

    def test_save_is_canonical(self, toy_model, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(toy_model, str(a))
        save_model(toy_model, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_raises_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_model(str(tmp_path / "nope.json"))

    def test_invalid_json_raises_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            load_model(str(path))

    def test_wrong_version_rejected(self, toy_model, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_model(toy_model, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["format_version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InputError):
            load_model(str(path))

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(InputError):
            load_model(str(path))
