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
from .files import atomic_write, parse_json, read_text

PAD_TOKEN = "[pad]"

CHECKPOINT_FORMAT_VERSION = 1

# Architecture of the classifier train_toy builds; load_model accepts
# whatever dimensions a checkpoint declares.
EMBED_DIM = 16
HIDDEN_DIM = 16

# Most path points one block of path_gradients takes (a longer path goes
# alone). Per-call overhead dominates small blocks and cache misses large
# ones: on one pinned core of a 2-vCPU Xeon host (2 MiB L2 per core), a
# one-block call of 301-point paths cost about 440 ns per point at 301
# points, 320 at 602, 265 at 903, 240 at 1204, 215 at 1505, 200 at 2408
# and 360 at 4214; of 51-point paths, 1930 at 51, 395 at 510, 315 at
# 1020 and 270 at 1530. On 14 paths, explain-fine's usual record, 1536
# took 190 ns per point at 301 points against 215 for 1024 and 190 for
# 2048 (medians of 40 interleaved rounds); at 51 points every size from
# 714 up is one block. 1536 puts five 301-point paths or thirty 51-point
# paths in a block.
ROW_BLOCK = 1536


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with a reserved PAD slot.

    Indices are dense 0..V-1 and pad_index is the index of PAD_TOKEN, so
    it never collides with a word index.
    """

    token_to_index: dict[str, int]
    pad_index: int

    def __post_init__(self) -> None:
        indices = sorted(self.token_to_index.values())
        if indices != list(range(len(indices))):
            raise InputError("vocabulary indices must be dense 0..V-1")
        if self.token_to_index.get(PAD_TOKEN) != self.pad_index:
            raise InputError(f"pad_index {self.pad_index} is not vocab[{PAD_TOKEN!r}]")

    @property
    def size(self) -> int:
        return len(self.token_to_index)

    def index_or_pad(self, token: str) -> int:
        """Look up a token, falling back to the PAD index when unknown."""
        return self.token_to_index.get(token, self.pad_index)

    @classmethod
    def build(cls, token_lists: Sequence[Sequence[str]]) -> "Vocabulary":
        """Build a vocabulary from tokenized texts, PAD first at index 0.

        Word order is sorted, so the result does not depend on corpus order.
        """
        words = sorted({tok for toks in token_lists for tok in toks if tok != PAD_TOKEN})
        mapping = {PAD_TOKEN: 0}
        mapping.update({tok: i + 1 for i, tok in enumerate(words)})
        return cls(token_to_index=mapping, pad_index=0)


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


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the first (class) axis: a (C,) vector, or a (C, ...)
    stack with one input per trailing position.

    The max and the sum over classes run as a loop over the C class
    rows, each step one elementwise operation on all inputs: numpy
    reduces a short axis input by input, which made the reductions most
    of the softmax's cost on a 301-input stack. For C <= 7 the result is
    bitwise that of logits.max(0) and exp.sum(0), which add fewer than 8
    numbers in order. A (B, C) caller passes its transpose.
    """
    top = logits[0]
    for k in range(1, len(logits)):
        top = np.maximum(top, logits[k])
    exp = np.exp(logits - top)
    total = exp[0].copy()
    for k in range(1, len(logits)):
        total += exp[k]
    return exp / total


@dataclass
class Model:
    """Mean-pool -> affine -> tanh -> affine -> softmax classifier.

    Immutable after training by convention: every method is pure.
    The embedding width d is embedding.shape[1], stored nowhere else.
    `forward` and `input_gradient` take one (n, d) sentence; the output
    depends on it only through its (d,) pooled mean, so
    `path_gradients` integrates straight paths of pooled vectors and
    `removal_probabilities` scores the removals of many sentences in one
    head call. In a call of two or more rows, a row's result does not
    depend on the rows that share the call; a one-row call, like
    `forward`, is a matrix-vector product, which can round differently
    in the last bit (by up to 2.2e-16 on the toy model's probabilities).
    Every gradient goes through one kernel: `path_gradients` integrates
    its paths class-first, with (H, p, S) hidden activations and a
    (C, rows) head, and `input_gradient` is one zero-offset path of one
    node through it. `path_gradients` keeps each path's row independent
    of the other paths, one path included.
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

    def embed(self, tokens: Sequence[int]) -> np.ndarray:
        """Row-wise embedding lookup: a copy of each token's row."""
        idx = np.asarray(tokens, dtype=np.intp)
        if idx.size == 0:
            raise InputError("cannot embed an empty token sequence")
        if idx.min() < 0 or idx.max() >= len(self.embedding):
            raise InputError(f"token indices {idx.min()}..{idx.max()} outside [0, {len(self.embedding)})")
        return np.asarray(self.embedding[idx], dtype=np.float64)

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
        return hidden, _softmax((hidden @ self.w2.T + self.b2).T).T

    def _check_class(self, target_class: int) -> None:
        if not 0 <= target_class < self.num_classes:
            raise InputError(f"class index {target_class} out of range [0, {self.num_classes})")

    def _class_sums(self, pre: np.ndarray, weights: np.ndarray, target_class: int) -> np.ndarray:
        """One block of path_gradients: a (H, p, S) block of first-layer
        pre-activations, p paths of S points each, gives the (p, H, C)
        sums over each path's points of weights[s] * (1 - h**2) p_c p_k,
        with h = tanh(pre), c the target class and k every class.

        The gradient of p_c w.r.t. the pre-activations is
        (1 - h**2) * sum_k (w2[c] - w2[k]) p_c p_k, so contracting the
        result with the (H, C) matrix w2[c] - w2.T gives each path's
        weighted gradient sum. Scaling the (C, rows) probabilities by p_c
        and the weights makes each path's sum one (H, S) @ (S, C)
        product; the tanh and 1 - h**2 are the only elementwise steps on
        (H, rows) arrays. pre is overwritten.
        """
        h, p, s = pre.shape
        hidden = np.tanh(pre, out=pre)
        # (rows, H) @ (H, C), as in _head: OpenBLAS rounds a column of
        # the (C, H) @ (H, rows) product differently with the block's
        # width, which would tie a path's row to its block. The bias add
        # then writes contiguous class rows, which the softmax reads
        # about 1.2 times as fast as the product's strided ones.
        logits = (hidden.reshape(h, -1).T @ self.w2.T).T
        probs = _softmax(np.add(logits, self.b2[:, np.newaxis], order="C")).reshape(-1, p, s)
        scaled = probs * (probs[target_class] * weights)  # (C, p, S)
        slope = np.subtract(1.0, np.square(hidden, out=hidden), out=hidden)
        return np.matmul(slope.transpose(1, 0, 2), scaled.transpose(1, 2, 0))

    def forward(self, embeddings: np.ndarray) -> np.ndarray:
        """Class probability vector for one embedded sentence."""
        # Finite rows near the float maximum can pool to inf; the first
        # check of a non-finite value downstream names the cause.
        with np.errstate(over="ignore"):
            pooled = self._check_input(embeddings).mean(axis=0)
        return self._head(pooled)[1]

    def path_gradients(
        self, start: np.ndarray, offsets: np.ndarray, nodes: np.ndarray, weights: np.ndarray, target_class: int
    ) -> np.ndarray:
        """Quadrature-weighted gradient sums along straight paths in pooled space.

        Row p of the (P, d) result is the sum over s of
        weights[s] * g(start + nodes[s] * offsets[p]), where g is the
        gradient of the target probability w.r.t. a pooled vector (n times
        a row of input_gradient); nodes and weights are the caller's rule.
        The first layer is affine, so the pre-activations along path p
        are a + alpha * b_p, with a = start W1^T + b1 and b_p = offsets[p]
        W1^T: no point in pooled space is built. Paths run in blocks of
        whole paths of at most ROW_BLOCK points (a longer path alone),
        laid out class-first: a block's hidden activations are (H, p, S),
        with S = len(nodes), and its probabilities (C, rows). Each path's
        weighted sum is one (H, S) @ (S, C) product (see _class_sums);
        after the last block, one contraction with w2[c] - w2.T turns the
        (P, H, C) products into (H,) pre-activation gradient sums, each
        mapped back to d once. A path's row does not depend on the paths
        that share the call: start is projected together with the
        offsets, so the projection is never a one-row product, the head
        product's rows are points, each path has its own (H, S) @ (S, C)
        product, and the rest is elementwise.

        Raises InputError for a start that is not (d,), offsets that are
        not (P, d), nodes and weights that are not 1-D of one length > 0,
        or a bad class, and NumericError for any non-finite input.
        """
        d = self.embed_dim
        start = np.asarray(start, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        nodes, weights = np.asarray(nodes, dtype=np.float64), np.asarray(weights, dtype=np.float64)
        if start.shape != (d,) or offsets.ndim != 2 or offsets.shape[1] != d:
            raise InputError(
                f"expected a ({d},) path start and a (P, {d}) offset stack, "
                f"got shapes {start.shape} and {offsets.shape}"
            )
        if nodes.ndim != 1 or nodes.shape != weights.shape or not len(nodes):
            raise InputError(f"nodes {nodes.shape} and weights {weights.shape} must be 1-D of one length > 0")
        if not (np.isfinite(start).all() and np.isfinite(offsets).all()):
            raise NumericError("path start or offsets contain non-finite values")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise NumericError("quadrature nodes or weights contain non-finite values")
        self._check_class(target_class)
        projected = (np.vstack([start, offsets]) @ self.w1.T).T  # (H, 1 + P)
        origin = (projected[:, 0] + self.b1)[:, np.newaxis, np.newaxis]
        per_call = max(1, ROW_BLOCK // len(nodes))
        per_class = np.empty((len(offsets), len(self.b1), self.num_classes))
        for first in range(0, len(offsets), per_call):
            # C order makes _class_sums's (H, rows) reshape a view, not a copy.
            pre = np.multiply(projected[:, 1 + first : 1 + first + per_call, np.newaxis], nodes, order="C")
            pre += origin
            per_class[first : first + per_call] = self._class_sums(pre, weights, target_class)
        spread = self.w2[target_class][:, np.newaxis] - self.w2.T  # (H, C)
        sums = (per_class * spread).sum(axis=2)  # (P, H)
        return (sums[:, :, np.newaxis] * self.w1).sum(axis=1)

    def input_gradient(self, embeddings: np.ndarray, target_class: int) -> np.ndarray:
        """Exact gradient of forward(...)[target_class] w.r.t. every input entry.

        Takes one (n, d) sentence. The gradient at its pooled mean is one
        zero-offset path through path_gradients, of one node of weight 1,
        and mean pooling spreads it evenly, so every row is it divided by n.
        """
        arr = self._check_input(embeddings)
        grad = self.path_gradients(arr.mean(axis=0), np.zeros_like(arr[:1]), np.zeros(1), np.ones(1), target_class)
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
            # sum / n rounds as mean does, without mean's Python-level wrapper.
            pooled.append(rows.sum(axis=1) / len(instance))
        return self._head(self._check_input(np.concatenate(pooled)))[1]


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
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


def _init_model(
    vocab: Vocabulary, d: int, hidden_dim: int, num_classes: int, rng: np.random.Generator
) -> Model:
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

    Each epoch gathers its padded token ids and one-hot targets once, in
    permutation order, so a minibatch is a slice of them. Each minibatch
    is one matrix step: one pass through the model's own head, every
    gradient taken from the parameters before the step, and one bincount
    scatter of the pooled gradients into the embedding rows. Deterministic
    under a fixed config seed: the same seed yields bitwise identical
    parameters. The classes are 0 to the largest label, and at least
    two. Raises InputError for an empty corpus, a negative label, or a
    label above a class without an example (a corpus labelled 1 alone
    leaves class 0 empty and is accepted), before any parameter is
    allocated.
    """
    if not examples:
        raise InputError("training corpus is empty")
    labels = [label for _, label in examples]
    if min(labels) < 0:
        raise InputError("labels must be non-negative class indices")
    present = sorted(set(labels))
    if present != [1]:
        for missing, label in enumerate(present):
            if label != missing:
                raise InputError(f"label {label} leaves class {missing} with no training example")
    num_classes = max(2, present[-1] + 1)

    vocab = Vocabulary.build([toks for toks, _ in examples])
    rng = np.random.default_rng(config.seed)
    model = _init_model(vocab, EMBED_DIM, HIDDEN_DIM, num_classes, rng)

    # Pad every sequence to the longest one, so a minibatch is one (B, L)
    # block and every row pools over L positions. The PAD row is trained
    # only through the sentences that carry it (on the bundled corpus, the
    # 69.5% shorter than 13 tokens), and nothing pulls the all-PAD
    # baseline toward a uniform prediction: there it predicts class 1 with
    # p = 0.98. Baseline neutrality is not enforced (ROADMAP item 5).
    max_len = max(len(toks) for toks, _ in examples)
    token_ids = np.asarray(
        [
            [vocab.token_to_index[t] for t in toks] + [vocab.pad_index] * (max_len - len(toks))
            for toks, _ in examples
        ],
        dtype=np.intp,
    )
    onehot = np.eye(num_classes)[labels]  # (N, C)
    columns = np.arange(model.embed_dim)

    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_ids, epoch_targets = token_ids[order], onehot[order]
        for start in range(0, len(examples), config.batch_size):
            ids = epoch_ids[start : start + config.batch_size]  # (B, L)
            # The sum over positions and one division is what mean does.
            pooled = model.embedding[ids].sum(axis=1) / max_len  # (B, d)
            hidden, probs = model._head(pooled)
            # Cross-entropy gradient at the logits, one row per example.
            delta = probs - epoch_targets[start : start + config.batch_size]
            grad_pre = (delta @ model.w2) * (1.0 - hidden**2)  # (B, H)
            grad_pooled = grad_pre @ model.w1 / max_len  # (B, d)
            # Every (b, l) position adds its row's pooled gradient to the
            # d cells of its id's embedding row, a repeated id (PAD
            # included) once per occurrence. bincount adds each cell's
            # entries in (b, l) order starting from 0.0, as np.add.at on
            # a zeroed (V, d) array does, so the sums are bitwise the same.
            cells = ids[:, :, np.newaxis] * model.embed_dim + columns  # (B, L, d)
            weights = np.repeat(grad_pooled, max_len, axis=0)  # (B * L, d)
            grad_emb = np.bincount(cells.ravel(), weights.ravel(), model.embedding.size)
            scale = config.learning_rate / len(ids)
            model.embedding -= scale * grad_emb.reshape(model.embedding.shape)
            model.w1 -= scale * (grad_pre.T @ pooled)
            model.b1 -= scale * grad_pre.sum(axis=0)
            model.w2 -= scale * (delta.T @ hidden)
            model.b2 -= scale * delta.sum(axis=0)
    return model


def training_accuracy(model: Model, examples: Sequence[tuple[Sequence[str], int]]) -> float:
    """Share of examples whose predicted class is their label.

    Unknown words count as PAD; every example is scored with nothing
    removed, all in one removal_probabilities call.
    """
    instances = [instance_from_words(model, tokens, label)[0] for tokens, label in examples]
    keep_all = [np.zeros((1, len(instance)), dtype=bool) for instance in instances]
    predicted = np.argmax(model.removal_probabilities(instances, keep_all), axis=1)
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
_REQUIRED_KEYS = ("pad_token", "vocab", "pad_index", "embed_dim", "hidden_dim", "num_classes") + _PARAMETERS


def _check_parameters(
    vocab: Vocabulary, d: int, h: int, c: int, params: Mapping[str, np.ndarray]
) -> None:
    """Reject declared dimensions below their least values (one class
    explains nothing) and parameters whose shapes disagree with them.

    The forward pass and the gradients trust these shapes, so a
    mismatch must stop at load time instead of broadcasting or failing
    deep inside a run.
    """
    for field, value, least in (("embed_dim", d, 1), ("hidden_dim", h, 1), ("num_classes", c, 2)):
        if value < least:
            raise InputError(f"model checkpoint {field} must be >= {least}, got {value}")
    v = vocab.size
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
        if not np.isfinite(params[name]).all():
            raise NumericError(f"model checkpoint {name!r} contains non-finite values")


def _checkpoint_int(value: Any, field: str) -> int:
    """A checkpoint scalar that must be a JSON integer; true, 0.9 or 2.5 is
    rejected rather than truncated to an index or a dimension."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"model checkpoint {field} must be an integer, got {value!r}")
    return value


def _checkpoint_array(value: Any, field: str) -> np.ndarray:
    """A checkpoint parameter as a float64 array; a ragged or non-numeric
    list, or an integer beyond float range, is rejected naming the field."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"model checkpoint {field!r} is not a numeric array: {exc}") from exc


def load_model(path: str) -> Model:
    """Read a checkpoint written by save_model, validating keys, shapes and values.

    Every malformed checkpoint raises InputError (NumericError for
    non-finite parameters) naming the offending field.
    """
    payload = parse_json(read_text(path, "model checkpoint"), "model checkpoint")
    if not isinstance(payload, Mapping) or "format_version" not in payload:
        raise InputError("model checkpoint missing mandatory format_version field")
    version = payload["format_version"]
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise InputError(f"unsupported checkpoint version {version!r}, expected {CHECKPOINT_FORMAT_VERSION}")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise InputError(f"model checkpoint missing required keys: {missing}")
    if payload["pad_token"] != PAD_TOKEN:
        raise InputError(f"model checkpoint pad_token {payload['pad_token']!r} is not {PAD_TOKEN!r}")
    try:
        vocab = Vocabulary(
            token_to_index={
                str(k): _checkpoint_int(v, f"vocab[{k!r}]") for k, v in payload["vocab"].items()
            },
            pad_index=_checkpoint_int(payload["pad_index"], "pad_index"),
        )
    except AttributeError as exc:
        raise InputError(f"model checkpoint vocab is not a mapping: {exc}") from exc
    dims = [_checkpoint_int(payload[key], key) for key in ("embed_dim", "hidden_dim", "num_classes")]
    params = {name: _checkpoint_array(payload[name], name) for name in _PARAMETERS}
    _check_parameters(vocab, *dims, params)
    return Model(vocab=vocab, **params)
