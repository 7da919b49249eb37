"""Toy classifier: forward pass, analytic gradient, training, checkpoints."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance, make_random_model, reference_pooled_gradient
from minfeat import build_toy_corpus, tokenize
from minfeat import model as model_module
from minfeat.errors import ConfigError, InputError, NumericError
from minfeat.model import (
    PAD_TOKEN,
    ROW_BLOCK,
    Instance,
    Model,
    TrainConfig,
    Vocabulary,
    _init_model,
    _softmax,
    instance_from_words,
    load_model,
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
    vocab = Vocabulary.build([toks for toks, _ in examples])
    rng = np.random.default_rng(config.seed)
    model = _init_model(vocab, embed_dim, hidden_dim, max(max(labels) + 1, 2), rng)
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


def add_at_train(examples, config: TrainConfig) -> Model:
    """The vectorised minibatch step with an np.add.at scatter, which
    train_toy's bincount step must match bit for bit.

    Same initialization, draw order and update rule, one matrix step per
    minibatch; the batch pools with mean, and the embedding gradient is
    accumulated by np.add.at into a zeroed (V, d) array.
    """
    labels = [label for _, label in examples]
    vocab = Vocabulary.build([toks for toks, _ in examples])
    rng = np.random.default_rng(config.seed)
    model = _init_model(vocab, 16, 16, max(max(labels) + 1, 2), rng)
    max_len = max(len(toks) for toks, _ in examples)
    token_ids = np.asarray(
        [
            [vocab.token_to_index[t] for t in toks] + [vocab.pad_index] * (max_len - len(toks))
            for toks, _ in examples
        ],
        dtype=np.intp,
    )
    y = np.asarray(labels, dtype=np.intp)
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            batch = order[start : start + config.batch_size]
            ids = token_ids[batch]
            pooled = model.embedding[ids].mean(axis=1)
            hidden, probs = model._head(pooled)
            delta = probs.copy()
            delta[np.arange(len(batch)), y[batch]] -= 1.0
            grad_pre = (delta @ model.w2) * (1.0 - hidden**2)
            grad_pooled = grad_pre @ model.w1 / max_len
            grad_emb = np.zeros_like(model.embedding)
            np.add.at(grad_emb, ids, grad_pooled[:, np.newaxis, :])
            scale = config.learning_rate / len(batch)
            model.embedding -= scale * grad_emb
            model.w1 -= scale * (grad_pre.T @ pooled)
            model.b1 -= scale * grad_pre.sum(axis=0)
            model.w2 -= scale * (delta.T @ hidden)
            model.b2 -= scale * delta.sum(axis=0)
    return model


class TestVocabulary:
    def test_build_puts_pad_first_and_sorts_words(self):
        vocab = Vocabulary.build([["b", "a"], ["c", "a"]])
        assert vocab.token_to_index[PAD_TOKEN] == 0
        assert vocab.pad_index == 0
        assert [w for w, _ in sorted(vocab.token_to_index.items(), key=lambda kv: kv[1])] == [
            PAD_TOKEN,
            "a",
            "b",
            "c",
        ]

    def test_build_is_order_insensitive(self):
        a = Vocabulary.build([["x", "y", "z"]])
        b = Vocabulary.build([["z"], ["y", "x"]])
        assert a.token_to_index == b.token_to_index

    def test_index_or_pad_falls_back(self):
        vocab = Vocabulary.build([["a"]])
        assert vocab.index_or_pad("a") == 1
        assert vocab.index_or_pad("missing") == vocab.pad_index

    def test_sparse_indices_rejected(self):
        with pytest.raises(InputError):
            Vocabulary(token_to_index={PAD_TOKEN: 0, "a": 2}, pad_index=0)

    @pytest.mark.parametrize("mapping, pad_index", [({PAD_TOKEN: 0, "a": 1}, 1), ({"a": 0, "b": 1}, 0)])
    def test_pad_index_must_be_the_pad_entry(self, mapping, pad_index):
        with pytest.raises(InputError, match="pad_index"):
            Vocabulary(token_to_index=mapping, pad_index=pad_index)


class TestEmbed:
    def test_out_of_range_token_rejected(self):
        model = make_random_model(1, vocab_size=2)  # three embedding rows
        for tokens in ([0, 3], [-1]):
            with pytest.raises(InputError, match=r"outside \[0, 3\)"):
                model.embed(tokens)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            make_random_model(1).embed([])

    def test_returns_copy(self):
        model = make_random_model(1)
        before = model.embedding[1, 0]
        rows = model.embed([1, 1])
        rows[0, 0] = before + 99.0
        assert model.embedding[1, 0] == before
        assert np.array_equal(rows[1], model.embedding[1])


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
        vocab = Vocabulary.build([["a"]])
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


def _cut(instance: Instance, n: int) -> Instance:
    return Instance(
        tokens=instance.tokens[:n],
        embeddings=instance.embeddings[:n],
        label=instance.label,
    )


def _re_embedded(model, inst, mask) -> np.ndarray:
    """The instance's embeddings with the masked positions embedded as PAD."""
    return model.embed(np.where(mask, model.vocab.pad_index, inst.tokens))


def _every_subset(n: int) -> np.ndarray:
    """(2^n, n) mask stack, row r removing the positions set in r's bits."""
    return (np.arange(2**n)[:, np.newaxis] >> np.arange(n) & 1).astype(bool)


class TestRemovalProbabilities:
    def test_every_subset_matches_re_embedding(self, toy_model, toy_instances):
        masks = _every_subset(8)
        for inst in (_cut(toy_instances[k], 8) for k in (0, 1, 2)):
            stacked = toy_model.removal_probabilities([inst], [masks])
            assert stacked.shape == (256, toy_model.num_classes)
            one_by_one = np.array(
                [toy_model.forward(_re_embedded(toy_model, inst, mask)) for mask in masks]
            )
            # A (B, d) matmul may round differently from a (d,) one; bound
            # the absolute gap, since tiny probabilities differ in many ulps.
            np.testing.assert_allclose(stacked, one_by_one, rtol=0, atol=1e-15)

    def test_single_mask_is_bitwise_forward(self, toy_model, toy_instances):
        inst = _cut(toy_instances[3], 8)
        for mask in _every_subset(8):
            single = toy_model.removal_probabilities([inst], [mask[np.newaxis]])[0]
            assert np.array_equal(single, toy_model.forward(_re_embedded(toy_model, inst, mask)))

    def test_corpus_rows_are_per_instance_rows(self, toy_model, toy_instances):
        # 200 records of 16 masks each in one 3200-row call; every row
        # equals the row of that record's own call.
        rng = np.random.default_rng(0)
        stacks = [rng.random((16, len(inst))) < 0.3 for inst in toy_instances]
        together = toy_model.removal_probabilities(toy_instances, stacks)
        assert together.shape == (16 * len(toy_instances), toy_model.num_classes)
        alone = [toy_model.removal_probabilities([inst], [m]) for inst, m in zip(toy_instances, stacks)]
        assert np.array_equal(together, np.concatenate(alone))

    def test_one_row_calls_round_apart_from_larger_calls(self, toy_model, toy_instances):
        # The restoration rows of one-element sets: every position but one
        # removed. Scored two at a time they equal the rows of one corpus
        # call bit for bit; scored one at a time (a matrix-vector product)
        # about half of them differ in the last bit on OpenBLAS, so a
        # minimality check whose probability lies that close to t can
        # flip between the two.
        pairs = [(inst, ~np.eye(len(inst), dtype=bool)[k]) for inst in toy_instances for k in (0, 1)]
        together = toy_model.removal_probabilities([inst for inst, _ in pairs], [m[np.newaxis] for _, m in pairs])
        two_rows = [
            toy_model.removal_probabilities([a, b], [ma[np.newaxis], mb[np.newaxis]])
            for (a, ma), (b, mb) in zip(pairs[::2], pairs[1::2])
        ]
        assert np.array_equal(together, np.concatenate(two_rows))
        one_row = np.concatenate([toy_model.removal_probabilities([inst], [m[np.newaxis]]) for inst, m in pairs])
        np.testing.assert_allclose(one_row, together, rtol=0, atol=4.5e-16)

    def test_no_instances_give_no_rows(self, toy_model):
        assert toy_model.removal_probabilities([], []).shape == (0, toy_model.num_classes)

    def test_one_mask_stack_per_instance(self, toy_model, toy_instances):
        inst = toy_instances[0]
        with pytest.raises(InputError):
            toy_model.removal_probabilities([inst, inst], [np.zeros((1, len(inst)), bool)])

    def test_mask_shape_checked(self, toy_model, toy_instances):
        inst = toy_instances[0]
        n = len(inst)
        for bad in (np.zeros(n, bool), np.zeros((2, n + 1), bool), np.zeros((2, n - 1), bool),
                    np.zeros((1, 2, n), bool)):
            with pytest.raises(InputError):
                toy_model.removal_probabilities([inst], [bad])


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
        for target in (2, -1):
            with pytest.raises(InputError):
                model.input_gradient(inst.embeddings, target)

    def test_non_finite_rejected(self):
        model = make_random_model(11)
        for bad in (np.nan, np.inf, -np.inf):
            sentence = np.zeros((4, model.embed_dim))
            sentence[3, 1] = bad
            with pytest.raises(NumericError):
                model.input_gradient(sentence, 0)

    # (2, 3, 5) is a well-formed stack of sentences: input_gradient takes
    # one sentence, and paths go through path_gradients instead.
    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (2, 3, 6), (1, 2, 3, 5), (3, 4), (2, 3, 5)])
    def test_bad_shape_rejected(self, shape):
        model = make_random_model(12)  # embed_dim 5
        with pytest.raises(InputError):
            model.input_gradient(np.zeros(shape), 0)


def trapezoid(steps):
    """The rule attribution integrates with: nodes k / steps for k = 0..steps,
    weighted 1/2 at both ends and 1 between."""
    weights = np.ones(steps + 1)
    weights[[0, -1]] = 0.5
    return np.arange(steps + 1) / steps, weights


def gauss_legendre(count):
    """count Gauss-Legendre nodes and weights, mapped from [-1, 1] to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return (nodes + 1.0) / 2.0, weights / 2.0


def per_point_path_sums(model, start, offsets, nodes, weights, target):
    """Reference for path_gradients: the textbook pooled gradient at every
    node of every path, times the node's weight, added in order."""
    sums = np.zeros_like(offsets)
    for p, offset in enumerate(offsets):
        for node, weight in zip(nodes, weights):
            sums[p] += weight * reference_pooled_gradient(model, start + node * offset, target)
    return sums


class TestPathGradients:
    @pytest.mark.parametrize("steps", [1, 2, 50, 300, 600, "gauss-24"])
    def test_matches_per_point_loop(self, steps):
        # P = 13 and 40 cross block boundaries at 300 and 600 steps, and
        # 40 at 50 steps; the head has 2 to 7 classes. "gauss-24" is a
        # 24-node Gauss-Legendre rule, with unevenly spaced nodes.
        if steps == "gauss-24":
            seed, (nodes, weights) = 24, gauss_legendre(24)
        else:
            seed, (nodes, weights) = steps, trapezoid(steps)
        rng = np.random.default_rng(seed)
        for classes, paths in itertools.product(range(2, 8), (1, 2, 13, 40)):
            model = make_random_model(seed + paths, num_classes=classes)
            start = rng.normal(0.0, 1.0, size=model.embed_dim)
            offsets = rng.normal(0.0, 1.0, size=(paths, model.embed_dim))
            target = paths % classes
            sums = model.path_gradients(start, offsets, nodes, weights, target)
            reference = per_point_path_sums(model, start, offsets, nodes, weights, target)
            assert sums.shape == (paths, model.embed_dim)
            # Compared as path averages, the scale attribution uses.
            assert np.abs(sums - reference).max() / weights.sum() <= 1e-14

    @pytest.mark.parametrize("steps", [1, 50, 300])
    def test_row_does_not_depend_on_other_paths(self, steps):
        # One path more than a block holds puts a block boundary inside
        # the stack at every step count; 13 and 40 paths add boundaries
        # at 50 and 300 steps.
        rng = np.random.default_rng(60)
        rule = trapezoid(steps)
        for seed in range(3):
            model = make_random_model(seed)
            start = rng.normal(0.0, 1.0, size=model.embed_dim)
            for paths in (13, 40, 1 + ROW_BLOCK // (steps + 1)):
                offsets = rng.normal(0.0, 1.0, size=(paths, model.embed_dim))
                together = model.path_gradients(start, offsets, *rule, 1)
                for p in range(paths):
                    alone = model.path_gradients(start, offsets[p : p + 1], *rule, 1)
                    assert np.array_equal(alone[0], together[p])
                assert np.array_equal(model.path_gradients(start, offsets[3:7], *rule, 1), together[3:7])

    def test_non_finite_rejected(self):
        model = make_random_model(61)
        start = np.zeros(model.embed_dim)
        offsets = np.ones((3, model.embed_dim))
        nodes, weights = trapezoid(4)
        for bad in (np.nan, np.inf, -np.inf):
            bad_start = start.copy()
            bad_start[2] = bad
            with pytest.raises(NumericError):
                model.path_gradients(bad_start, offsets, nodes, weights, 0)
            bad_offsets = offsets.copy()
            bad_offsets[1, 0] = bad
            with pytest.raises(NumericError):
                model.path_gradients(start, bad_offsets, nodes, weights, 0)
            bad_nodes = nodes.copy()
            bad_nodes[1] = bad
            with pytest.raises(NumericError):
                model.path_gradients(start, offsets, bad_nodes, weights, 0)
            bad_weights = weights.copy()
            bad_weights[0] = bad
            with pytest.raises(NumericError):
                model.path_gradients(start, offsets, nodes, bad_weights, 0)

    # Cases 2 to 4 are bad rules: 2-D nodes, unequal lengths, no nodes.
    @pytest.mark.parametrize(
        "start_shape, offsets_shape, nodes_shape, weights_shape, target",
        [
            ((5,), (3, 5), (5,), (5,), 2),
            ((5,), (3, 5), (5,), (5,), -1),
            ((5,), (3, 5), (1, 5), (1, 5), 0),
            ((5,), (3, 5), (5,), (4,), 0),
            ((5,), (3, 5), (0,), (0,), 0),
            ((1, 5), (3, 5), (5,), (5,), 0),
            ((4,), (3, 5), (5,), (5,), 0),
            ((5,), (5,), (5,), (5,), 0),
            ((5,), (3, 4), (5,), (5,), 0),
            ((5,), (2, 3, 5), (5,), (5,), 0),
        ],
    )
    def test_bad_class_shape_or_steps_rejected(
        self, start_shape, offsets_shape, nodes_shape, weights_shape, target
    ):
        model = make_random_model(62)  # embed_dim 5, two classes
        start, offsets = np.zeros(start_shape), np.ones(offsets_shape)
        with pytest.raises(InputError):
            model.path_gradients(start, offsets, np.full(nodes_shape, 0.5), np.ones(weights_shape), target)


class TestSoftmax:
    @pytest.mark.parametrize("classes", range(2, 8))
    def test_bitwise_equal_to_axis_reductions(self, classes):
        rng = np.random.default_rng(classes)
        for shape in ((classes,), (classes, 1), (classes, 2), (classes, 301), (classes, 3, 301)):
            for scale in (1.0, 30.0):
                logits = rng.normal(0.0, scale, size=shape)
                exp = np.exp(logits - logits.max(axis=0))
                assert np.array_equal(_softmax(logits), exp / exp.sum(axis=0))
                # A (B, C) caller passes the transpose and gets its rows back.
                rows = logits.reshape(classes, -1).T
                exp = np.exp(rows - rows.max(axis=-1, keepdims=True))
                assert np.array_equal(_softmax(rows.T).T, exp / exp.sum(axis=-1, keepdims=True))


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


# The bundled corpus, and mixed lengths that pad the short rows with one
# sentence repeating a word, so a batch gathers the same id more than
# once; 7 examples in batches of 3 leave a last batch of 1.
TRAINING_CASES = [
    ([(tokenize(r.text), r.label) for r in build_toy_corpus()], TrainConfig(epochs=3)),
    (
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
]
TRAINING_CASE_IDS = ["bundled-corpus", "mixed-lengths"]


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
        "labels, named",
        [((0, 10**12), "label 1000000000000 leaves class 1"), ((0, 2), "label 2 leaves class 1"),
         ((2,), "label 2 leaves class 0"), ((1, 3), "label 1 leaves class 0")],
    )
    def test_label_above_an_empty_class_rejected_before_allocation(self, monkeypatch, labels, named):
        # One class per integer up to the largest label: a label of 10**12
        # would ask for a (10**12 + 1, H) output layer.
        def no_allocation(*args):
            raise AssertionError("parameters allocated before the labels were checked")

        monkeypatch.setattr(model_module, "_init_model", no_allocation)
        with pytest.raises(InputError, match=named):
            train_toy([(["a"], label) for label in labels], TrainConfig())

    @pytest.mark.parametrize("labels", [(0,), (1,), (1, 0, 1)])
    def test_two_classes_without_a_gap_accepted(self, labels):
        # A corpus labelled 1 alone trains a two-class model, as one
        # labelled 0 alone does.
        model = train_toy([(["a"], label) for label in labels], TrainConfig(epochs=1))
        assert model.w2.shape[0] == 2

    @pytest.mark.parametrize("examples, config", TRAINING_CASES, ids=TRAINING_CASE_IDS)
    def test_matches_per_example_reference(self, examples, config):
        trained = train_toy(examples, config)
        reference = reference_train(examples, config)
        assert trained.vocab == reference.vocab
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            assert np.abs(getattr(trained, name) - getattr(reference, name)).max() <= 1e-12, name

    @pytest.mark.parametrize("examples, config", TRAINING_CASES, ids=TRAINING_CASE_IDS)
    def test_bitwise_equal_to_add_at_step(self, examples, config):
        trained = train_toy(examples, config)
        reference = add_at_train(examples, config)
        assert trained.vocab == reference.vocab
        for name in ("embedding", "w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(trained, name), getattr(reference, name)), name

    def test_separates_bundled_corpus(self, toy_model, toy_corpus):
        from minfeat.model import training_accuracy

        examples = [(tokenize(r.text), r.label) for r in toy_corpus]
        assert training_accuracy(toy_model, examples) >= 0.95

    def test_accuracy_matches_per_example_forward(self, toy_corpus):
        from minfeat.model import training_accuracy

        # An undertrained model, and unknown words scored as PAD.
        examples = [(tokenize(r.text), r.label) for r in toy_corpus]
        model = train_toy(examples, TrainConfig(epochs=1, learning_rate=0.05, seed=3))
        examples += [(["zzz-unknown", "good"], 0), (["zzz-unknown"], 1), (["bad", "qqq"], 1)]
        hits = 0
        for tokens, label in examples:
            ids = [model.vocab.index_or_pad(t) for t in tokens]
            hits += model.predicted_class(model.embed(ids)) == label
        assert 0.0 < hits / len(examples) < 1.0
        assert training_accuracy(model, examples) == hits / len(examples)

    def test_accuracy_scores_in_one_removal_call(self, toy_model, toy_corpus, monkeypatch):
        from minfeat.model import training_accuracy

        calls = []
        score = Model.removal_probabilities

        def counted(self, instances, masks):
            calls.append(len(instances))
            return score(self, instances, masks)

        monkeypatch.setattr(Model, "removal_probabilities", counted)
        examples = [(tokenize(r.text), r.label) for r in toy_corpus]
        training_accuracy(toy_model, examples)
        assert calls == [len(examples)]


class TestInstances:
    def test_oov_words_become_padded_positions(self, toy_model):
        inst, oov = instance_from_words(toy_model, ["good", "zzz-unknown", "bad"], 1)
        assert oov == 1
        pad = toy_model.vocab.pad_index
        assert [t == pad for t in inst.tokens] == [False, True, False]
        pad_row = toy_model.embedding[pad]
        assert [np.array_equal(row, pad_row) for row in inst.embeddings] == [False, True, False]

    def test_masking_padded_position_is_idempotent(self, toy_model):
        inst, oov = instance_from_words(toy_model, ["good", "zzz-unknown", "bad", "movie"], 1)
        assert oov == 1
        for base in ([False, False, False, False], [True, False, False, True]):
            again = list(base)
            again[1] = True  # position 1 is the OOV word, padded already
            once = toy_model.removal_probabilities([inst], [[base]])
            twice = toy_model.removal_probabilities([inst], [[again]])
            assert np.array_equal(once, twice)

    def test_empty_instance_rejected(self):
        with pytest.raises(InputError):
            Instance(tokens=(), embeddings=np.zeros((0, 2)), label=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            Instance(tokens=(1, 2), embeddings=np.zeros((3, 2)), label=0)


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
