"""Tiny differentiable text classifier used as the explanation target.

The classifier is deliberately small and fully transparent: token
embeddings are mean-pooled over positions, passed through one tanh hidden
layer, and projected to class probabilities with a softmax head. Every
parameter is a float64 numpy array, the forward pass is a pure function,
and the input gradient is computed analytically (reverse mode by hand),
which makes the model a convenient oracle target for attribution code.

Removing a word means replacing its embedding row with the PAD embedding;
a sentence with every position padded is the attribution baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError, NumericError, check_field_types
from .files import atomic_write

PAD_TOKEN = "[pad]"

CHECKPOINT_FORMAT_VERSION = 1

# Architecture of the classifier train_toy builds; load_model accepts
# whatever dimensions a checkpoint declares.
EMBED_DIM = 16
HIDDEN_DIM = 16

# Most rows one gradient call takes. Per-call overhead dominates small
# calls and cache misses large ones: on one core, pooled_gradient costs
# 569 ns/row at 51 rows, 234 at 301, 216 at 510, 188 at 1024 and 463 at
# 3913. 512 fills a call with ten 51-point IG paths and leaves a
# 301-point path alone (1024 made 300-step attribution 6% slower).
ROW_BLOCK = 512


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with a reserved PAD slot.

    Indices are dense 0..V-1 and the PAD index never collides with a word
    index.
    """

    token_to_index: dict[str, int]
    pad_index: int
    embed_dim: int

    def __post_init__(self) -> None:
        indices = sorted(self.token_to_index.values())
        if indices != list(range(len(indices))):
            raise InputError("vocabulary indices must be dense 0..V-1")
        if self.pad_index not in self.token_to_index.values():
            raise InputError("pad index missing from vocabulary")
        if self.embed_dim < 1:
            raise InputError("embedding dimension must be positive")

    @property
    def size(self) -> int:
        return len(self.token_to_index)

    def index_or_pad(self, token: str) -> int:
        """Look up a token, falling back to the PAD index when unknown."""
        return self.token_to_index.get(token, self.pad_index)

    @classmethod
    def build(cls, token_lists: Sequence[Sequence[str]], embed_dim: int) -> "Vocabulary":
        """Build a vocabulary from tokenized texts, PAD first at index 0.

        Word order is sorted, so the result does not depend on corpus order.
        """
        words = sorted({tok for toks in token_lists for tok in toks if tok != PAD_TOKEN})
        mapping = {PAD_TOKEN: 0}
        mapping.update({tok: i + 1 for i, tok in enumerate(words)})
        return cls(token_to_index=mapping, pad_index=0, embed_dim=embed_dim)


@dataclass(frozen=True)
class Instance:
    """One tokenized text ready for explanation.

    ``embeddings`` row i holds the embedding of ``tokens[i]``; an unknown
    word carries the PAD index, so its row is the PAD embedding.
    """

    tokens: tuple[int, ...]
    embeddings: np.ndarray
    label: int

    def __post_init__(self) -> None:
        if len(self.tokens) < 1:
            raise InputError("instance needs at least one token")
        if self.embeddings.shape[0] != len(self.tokens):
            raise InputError("instance shape mismatch between tokens and embeddings")

    def __len__(self) -> int:
        return len(self.tokens)


def embed(
    table: np.ndarray,
    pad_index: int,
    tokens: Sequence[int],
    pad_mask: Sequence[bool] | None = None,
) -> np.ndarray:
    """Row-wise embedding lookup that honors a pad mask.

    Masked positions receive the PAD embedding row regardless of the token
    stored there, so padding an already-padded position is a no-op.
    """
    idx = np.asarray(tokens, dtype=np.intp)
    if idx.size == 0:
        raise InputError("cannot embed an empty token sequence")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise InputError(
            f"token index out of range: got {int(idx.max())}, vocabulary size {table.shape[0]}"
        )
    rows = np.array(table[idx], dtype=np.float64, copy=True)
    if pad_mask is not None:
        mask = np.asarray(pad_mask, dtype=bool)
        if mask.shape[0] != idx.shape[0]:
            raise InputError("pad mask length must match token count")
        rows[mask] = table[pad_index]
    return rows


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a (B, C) stack gives one row per input."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class Model:
    """Mean-pool -> affine -> tanh -> affine -> softmax classifier.

    Immutable after training by convention: every method is pure.
    `forward` and `input_gradient` take one (n, d) sentence; the output
    depends on it only through its (d,) pooled mean,
    so `pooled_gradient` takes a (B, d) stack of pooled vectors, and
    `removal_probabilities` scores the removals of many sentences in one
    head call. In a call of two or more rows, a row's result does not
    depend on the rows that share the call; a one-row call, like
    `forward`, is a matrix-vector product, which can round differently
    in the last bit (by up to 2.2e-16 on the toy model's probabilities).
    """

    vocab: Vocabulary
    embedding: np.ndarray  # (V, d)
    w1: np.ndarray  # (H, d)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (C, H)
    b2: np.ndarray  # (C,)

    @property
    def num_classes(self) -> int:
        return self.w2.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]

    def baseline_embeddings(self, n: int) -> np.ndarray:
        """The all-PAD embedding matrix of n rows."""
        return np.tile(self.embedding[self.vocab.pad_index], (n, 1))

    def embed(self, tokens: Sequence[int], pad_mask: Sequence[bool] | None = None) -> np.ndarray:
        return embed(self.embedding, self.vocab.pad_index, tokens, pad_mask)

    def _check_input(self, embeddings: np.ndarray) -> np.ndarray:
        """Validate one (n, d) sentence or one (B, d) stack of pooled vectors."""
        arr = np.asarray(embeddings, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[-1] != self.embed_dim:
            raise InputError(
                f"expected a 2-D array of rows of d = {self.embed_dim}, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NumericError("embedding matrix contains non-finite values")
        return arr

    def _head(self, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and class probabilities of a (d,) pooled vector
        or a (B, d) stack of them, one row per input."""
        hidden = np.tanh(pooled @ self.w1.T + self.b1)
        return hidden, _softmax(hidden @ self.w2.T + self.b2)

    def forward(self, embeddings: np.ndarray) -> np.ndarray:
        """Class probability vector for one embedded sentence."""
        return self._head(self._check_input(embeddings).mean(axis=0))[1]

    def pooled_gradient(self, pooled: np.ndarray, target_class: int) -> np.ndarray:
        """Exact gradient of the target probability w.r.t. each pooled vector.

        Maps a (B, d) stack of pooled vectors to (B, d) gradients, one row
        per input: reverse-mode accumulation through the softmax head and
        both affine layers.
        """
        arr = self._check_input(pooled)
        if not 0 <= target_class < self.num_classes:
            raise InputError(f"class index {target_class} out of range [0, {self.num_classes})")
        hidden, probs = self._head(arr)  # (B, H), (B, C)
        # d p_c / d logits = p_c * (onehot(c) - p)
        p_target = probs[:, target_class : target_class + 1]
        grad_logits = -p_target * probs
        grad_logits[:, target_class] += p_target[:, 0]
        return ((grad_logits @ self.w2) * (1.0 - hidden**2)) @ self.w1

    def input_gradient(self, embeddings: np.ndarray, target_class: int) -> np.ndarray:
        """Exact gradient of forward(...)[target_class] w.r.t. every input entry.

        Takes one (n, d) sentence. Mean pooling spreads the pooled gradient
        evenly, so every row is that gradient divided by n.
        """
        arr = self._check_input(embeddings)
        grad = self.pooled_gradient(arr.mean(axis=0, keepdims=True), target_class)
        return np.repeat(grad / len(arr), len(arr), axis=0)

    def removal_probabilities(
        self, instances: Sequence[Instance], masks: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Class probabilities of each sentence under its own stack of
        removal masks, as one (sum of B_i, C) array in input order.

        masks[i] is a (B_i, n_i) stack for instances[i]: its row b pads
        every position where it is True, and a position the instance
        already pads stays padded either way. Each sentence is pooled on
        its own; the head then scores all pooled rows in one call.
        """
        if len(instances) != len(masks):
            raise InputError(f"{len(instances)} instances but {len(masks)} removal mask stacks")
        if not instances:
            return np.empty((0, self.num_classes))
        pad = self.embedding[self.vocab.pad_index]
        pooled = []
        for instance, stack in zip(instances, masks):
            stack = np.asarray(stack, dtype=bool)
            if stack.ndim != 2 or stack.shape[1] != len(instance):
                raise InputError(
                    f"expected a (B, {len(instance)}) removal mask stack, got shape {stack.shape}"
                )
            rows = np.where(stack[:, :, np.newaxis], pad, instance.embeddings)  # (B, n, d)
            pooled.append(rows.mean(axis=1))
        return self._head(self._check_input(np.concatenate(pooled)))[1]

    def predicted_class(self, embeddings: np.ndarray) -> int:
        """Argmax class of the forward pass; ties go to the lower index."""
        return int(np.argmax(self.forward(embeddings)))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the toy trainer.

    The seed fully determines parameter initialization and batch order.
    A zero learning rate is allowed and leaves the parameters at their
    initialization; a NaN or infinite one is rejected up front rather
    than after the run has diverged.
    """

    learning_rate: float = 0.5
    epochs: int = 80
    batch_size: int = 16
    seed: int = 42

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


def _init_model(vocab: Vocabulary, hidden_dim: int, num_classes: int, rng: np.random.Generator) -> Model:
    d = vocab.embed_dim
    return Model(
        vocab=vocab,
        embedding=rng.normal(scale=0.1, size=(vocab.size, d)),
        w1=rng.normal(scale=1.0 / np.sqrt(d), size=(hidden_dim, d)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(scale=1.0 / np.sqrt(hidden_dim), size=(num_classes, hidden_dim)),
        b2=np.zeros(num_classes),
    )


def train_toy(
    examples: Sequence[tuple[Sequence[str], int]],
    config: TrainConfig,
) -> Model:
    """Train the toy classifier with minibatch SGD on cross-entropy.

    Each minibatch is one matrix step: one gather of its padded token ids,
    one pass through the model's own head, and every gradient taken from
    the parameters before the step. Deterministic under a fixed config
    seed: the same seed yields bitwise identical parameters. Raises
    InputError for an empty corpus or labels outside the inferred class
    range.
    """
    if not examples:
        raise InputError("training corpus is empty")
    labels = [label for _, label in examples]
    num_classes = max(labels) + 1
    if min(labels) < 0:
        raise InputError("labels must be non-negative class indices")
    if num_classes < 2:
        num_classes = 2

    vocab = Vocabulary.build([toks for toks, _ in examples], EMBED_DIM)
    rng = np.random.default_rng(config.seed)
    model = _init_model(vocab, HIDDEN_DIM, num_classes, rng)

    # Pad every sequence to the longest one, so a minibatch is one (B, L)
    # block and every row pools over L positions. The PAD row is trained
    # only through the sentences that carry it (on the bundled corpus, the
    # 69.5% shorter than 13 tokens), and nothing pulls the all-PAD
    # baseline toward a uniform prediction: there it predicts class 1 with
    # p = 0.98. Baseline neutrality is not enforced (ROADMAP item 3).
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
            ids = token_ids[batch]  # (B, L)
            pooled = model.embedding[ids].mean(axis=1)  # (B, d)
            hidden, probs = model._head(pooled)
            # Cross-entropy gradient at the logits, one row per example.
            delta = probs.copy()
            delta[np.arange(len(batch)), y[batch]] -= 1.0
            grad_pre = (delta @ model.w2) * (1.0 - hidden**2)  # (B, H)
            grad_pooled = grad_pre @ model.w1 / max_len  # (B, d)
            # add.at sums every occurrence of a repeated id (PAD included);
            # plain fancy-index += would keep only the last one.
            grad_emb = np.zeros_like(model.embedding)
            np.add.at(grad_emb, ids, grad_pooled[:, np.newaxis, :])
            scale = config.learning_rate / len(batch)
            model.embedding -= scale * grad_emb
            model.w1 -= scale * (grad_pre.T @ pooled)
            model.b1 -= scale * grad_pre.sum(axis=0)
            model.w2 -= scale * (delta.T @ hidden)
            model.b2 -= scale * delta.sum(axis=0)
    return model


def training_accuracy(model: Model, examples: Sequence[tuple[Sequence[str], int]]) -> float:
    """Share of examples whose predicted class is their label.

    Unknown words count as PAD; every example is mean-pooled on its own
    and the head scores them all in one call.
    """
    pooled = np.stack(
        [model.embed([model.vocab.index_or_pad(t) for t in tokens]).mean(axis=0) for tokens, _ in examples]
    )
    predicted = np.argmax(model._head(model._check_input(pooled))[1], axis=1)
    return int(np.sum(predicted == [label for _, label in examples])) / len(examples)


def instance_from_words(
    model: Model, words: Sequence[str], label: int
) -> tuple[Instance, int]:
    """Build an Instance from raw words, mapping unknown words to PAD.

    Returns the instance plus the number of out-of-vocabulary words, which
    are treated as already-padded positions.
    """
    vocab = model.vocab
    ids = [vocab.index_or_pad(word) for word in words]
    oov = sum(word not in vocab.token_to_index for word in words)
    return Instance(tokens=tuple(ids), embeddings=model.embed(ids), label=label), oov


def save_model(model: Model, path: str) -> None:
    """Write a self-describing JSON checkpoint (version field mandatory)."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "pad_token": PAD_TOKEN,
        "embed_dim": model.embed_dim,
        "hidden_dim": model.w1.shape[0],
        "num_classes": model.num_classes,
        "pad_index": model.vocab.pad_index,
        "vocab": model.vocab.token_to_index,
        "embedding": model.embedding.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2.tolist(),
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


_PARAMETERS = ("embedding", "w1", "b1", "w2", "b2")
_REQUIRED_KEYS = ("vocab", "pad_index", "embed_dim", "hidden_dim", "num_classes") + _PARAMETERS


def _check_parameters(
    vocab: Vocabulary, hidden_dim: int, num_classes: int, params: Mapping[str, np.ndarray]
) -> None:
    """Reject parameters whose shapes disagree with the declared dimensions.

    The forward pass and the gradients trust these shapes, so a
    mismatch must stop at load time instead of broadcasting or failing
    deep inside a run.
    """
    v, d, h, c = vocab.size, vocab.embed_dim, hidden_dim, num_classes
    expected = {
        "embedding": ((v, d), "(V, d)"),
        "w1": ((h, d), "(H, d)"),
        "b1": ((h,), "(H,)"),
        "w2": ((c, h), "(C, H)"),
        "b2": ((c,), "(C,)"),
    }
    for name, (shape, symbols) in expected.items():
        if params[name].shape != shape:
            raise InputError(
                f"model checkpoint {name!r} has shape {params[name].shape}, expected {symbols} = "
                f"{shape} from vocab size V, embed_dim d, hidden_dim H and num_classes C"
            )
    for name in _PARAMETERS:
        if not np.isfinite(params[name]).all():
            raise NumericError(f"model checkpoint {name!r} contains non-finite values")


def _checkpoint_int(value: Any, field: str) -> int:
    """A checkpoint scalar that must be a JSON integer; true, 0.9 or 2.5 is
    rejected rather than truncated to an index or a dimension."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"model checkpoint {field} must be an integer, got {value!r}")
    return value


def load_model(path: str) -> Model:
    """Read a checkpoint written by save_model, validating keys, shapes and values.

    Every malformed checkpoint raises InputError (NumericError for
    non-finite parameters) naming the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model checkpoint: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping) or "format_version" not in payload:
        raise InputError("model checkpoint missing mandatory format_version field")
    if payload["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise InputError(
            f"unsupported checkpoint version {payload['format_version']}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise InputError(f"model checkpoint missing required keys: {missing}")
    try:
        vocab = Vocabulary(
            token_to_index={
                str(k): _checkpoint_int(v, f"vocab[{k!r}]") for k, v in payload["vocab"].items()
            },
            pad_index=_checkpoint_int(payload["pad_index"], "pad_index"),
            embed_dim=_checkpoint_int(payload["embed_dim"], "embed_dim"),
        )
        hidden_dim = _checkpoint_int(payload["hidden_dim"], "hidden_dim")
        num_classes = _checkpoint_int(payload["num_classes"], "num_classes")
        params = {name: np.asarray(payload[name], dtype=np.float64) for name in _PARAMETERS}
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"model checkpoint has a malformed field: {exc}") from exc
    _check_parameters(vocab, hidden_dim, num_classes, params)
    return Model(vocab=vocab, **params)
