"""Hand-analyzable stand-ins for the trained classifier.

Each stub exposes only the slice of the model surface the code under
test touches, so expected values can be worked out on paper.
"""

from __future__ import annotations

import numpy as np

from minfeat.model import Instance


class LinearModel:
    """Two-output head that is exactly linear in the pooled embedding.

    forward returns [center - s, center + s] with s = w . mean(x) + b.
    The gradient is constant along any straight path, so the trapezoid
    rule has zero quadrature error and integrated gradients collapse to
    the closed form (x_i - x'_i) . w / n.
    """

    def __init__(self, weights, bias: float = 0.0, center: float = 0.5) -> None:
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.center = float(center)

    def forward(self, embeddings) -> np.ndarray:
        x = np.asarray(embeddings, dtype=np.float64)
        s = float(x.mean(axis=0) @ self.weights) + self.bias
        return np.array([self.center - s, self.center + s], dtype=np.float64)

    def pooled_gradient(self, pooled, target_class: int) -> np.ndarray:
        """Constant gradient +-w for each row of a (B, d) stack of pooled vectors."""
        x = np.asarray(pooled, dtype=np.float64)
        sign = 1.0 if target_class == 1 else -1.0
        return sign * np.broadcast_to(self.weights, x.shape).copy()

    def input_gradient(self, embeddings, target_class: int) -> np.ndarray:
        """Constant gradient +-w / n for one (n, d) sentence."""
        x = np.asarray(embeddings, dtype=np.float64)
        return self.pooled_gradient(x, target_class) / x.shape[0]

    def predicted_class(self, embeddings) -> int:
        return int(np.argmax(self.forward(embeddings)))

    def baseline_embeddings(self, n: int) -> np.ndarray:
        return np.zeros((n, self.weights.shape[0]), dtype=np.float64)


def linear_instance(embeddings, label: int = 1) -> Instance:
    """Wrap raw embeddings for use with LinearModel."""
    x = np.asarray(embeddings, dtype=np.float64)
    return Instance(
        tokens=tuple(range(1, x.shape[0] + 1)),
        embeddings=x,
        label=label,
        pad_mask=np.zeros(x.shape[0], dtype=bool),
    )


class ScriptedModel:
    """Returns scripted probabilities keyed by the set of removed rows.

    Metric code removes a word by re-embedding it as the PAD row; this
    stub embeds position i as the i-th standard basis vector and PAD as
    zero, so the set of all-zero rows identifies the removal pattern
    exactly. Unscripted patterns fail loudly.
    """

    def __init__(self, table: dict) -> None:
        self.table = {frozenset(k): tuple(v) for k, v in table.items()}

    def embed(self, tokens, pad_mask=None) -> np.ndarray:
        n = len(tokens)
        x = np.eye(n, dtype=np.float64)
        if pad_mask is not None:
            x[np.asarray(pad_mask, dtype=bool)] = 0.0
        return x

    def forward(self, embeddings) -> np.ndarray:
        x = np.asarray(embeddings, dtype=np.float64)
        removed = frozenset(i for i in range(x.shape[0]) if not x[i].any())
        if removed not in self.table:
            raise AssertionError(f"unscripted removal pattern: {sorted(removed)}")
        return np.asarray(self.table[removed], dtype=np.float64)

    def predicted_class(self, embeddings) -> int:
        return int(np.argmax(self.forward(embeddings)))


def scripted_instance(n: int, label: int = 0) -> Instance:
    """Instance whose embeddings follow the ScriptedModel convention."""
    return Instance(
        tokens=tuple(range(1, n + 1)),
        embeddings=np.eye(n, dtype=np.float64),
        label=label,
        pad_mask=np.zeros(n, dtype=bool),
    )
