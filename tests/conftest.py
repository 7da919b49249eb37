"""Shared fixtures: bundled corpus, one trained toy model, random models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from minfeat import build_toy_corpus, tokenize
from minfeat.attribution import cooperative_integrated_gradients
from minfeat.model import Instance, Model, TrainConfig, Vocabulary, instance_from_words, train_toy

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def make_random_model(
    seed: int, vocab_size: int = 8, embed_dim: int = 5, hidden_dim: int = 6, num_classes: int = 2
) -> Model:
    """Small random-weight model for tests where training is overkill."""
    rng = np.random.default_rng(seed)
    words = [f"w{k}" for k in range(vocab_size)]
    vocab = Vocabulary.build([words])
    return Model(
        vocab=vocab,
        embedding=rng.normal(0.0, 1.0, size=(vocab_size + 1, embed_dim)),
        w1=rng.normal(0.0, 0.7, size=(hidden_dim, embed_dim)),
        b1=rng.normal(0.0, 0.2, size=hidden_dim),
        w2=rng.normal(0.0, 0.7, size=(num_classes, hidden_dim)),
        b2=rng.normal(0.0, 0.2, size=num_classes),
    )


def reference_pooled_gradient(model: Model, pooled: np.ndarray, target: int) -> np.ndarray:
    """Gradient of the target probability at one (d,) pooled vector, by
    textbook reverse mode through the softmax, the tanh layer and the
    first affine layer, apart from the model's own gradient code."""
    hidden = np.tanh(model.w1 @ pooled + model.b1)
    logits = model.w2 @ hidden + model.b2
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    grad_logits = probs[target] * (np.eye(len(probs))[target] - probs)
    return ((grad_logits @ model.w2) * (1.0 - hidden**2)) @ model.w1


def make_random_instance(model: Model, seed: int, length: int | None = None) -> Instance:
    rng = np.random.default_rng(seed)
    n_words = len(model.vocab.token_to_index) - 1
    if length is None:
        length = int(rng.integers(3, 9))
    tokens = tuple(int(t) for t in rng.integers(1, n_words + 1, size=length))
    return Instance(
        tokens=tokens,
        embeddings=model.embed(tokens),
        label=int(rng.integers(0, 2)),
    )


def predicted_pair_map(model: Model, instance: Instance, config):
    """The pair scores refine takes: the instance's cooperative scores for
    the model's predicted class, at the config's beta and steps."""
    target = model.predicted_class(instance.embeddings)
    return cooperative_integrated_gradients(model, instance, target, config.beta, config.steps)


@pytest.fixture(scope="session")
def toy_corpus():
    return build_toy_corpus()


@pytest.fixture(scope="session")
def toy_model(toy_corpus):
    examples = [(tokenize(r.text), r.label) for r in toy_corpus]
    return train_toy(examples, TrainConfig())


@pytest.fixture(scope="session")
def toy_instances(toy_model, toy_corpus):
    built = []
    for record in toy_corpus:
        instance, oov = instance_from_words(toy_model, tokenize(record.text), record.label)
        assert oov == 0
        built.append(instance)
    return built
