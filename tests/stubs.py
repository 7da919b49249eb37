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

    def path_gradients(self, start, offsets, nodes, weights, target_class: int) -> np.ndarray:
        """Weighted sums of the constant gradient +-w along each of the
        (P, d) offsets: every row is sum(weights) * +-w, whatever the
        nodes (the trapezoid's weights add up to steps)."""
        sign = 1.0 if target_class == 1 else -1.0
        paths = np.asarray(offsets, dtype=np.float64).shape[0]
        return np.tile(sign * np.sum(weights) * self.weights, (paths, 1))

    def baseline_embeddings(self, n: int) -> np.ndarray:
        return np.zeros((n, self.weights.shape[0]), dtype=np.float64)


def linear_instance(embeddings, label: int = 1) -> Instance:
    """Wrap raw embeddings for use with LinearModel."""
    x = np.asarray(embeddings, dtype=np.float64)
    return Instance(
        tokens=tuple(range(1, x.shape[0] + 1)),
        embeddings=x,
        label=label,
    )


class ScriptedModel:
    """Returns scripted probabilities keyed by the set of removed rows.

    Metric code scores removals as boolean mask stacks, one per instance;
    each mask row's True positions are the removal pattern looked up in
    the table, whatever instance it belongs to. Rows come back in input
    order, as Model.removal_probabilities returns them. Unscripted
    patterns fail loudly.
    """

    def __init__(self, table: dict) -> None:
        self.table = {frozenset(k): tuple(v) for k, v in table.items()}

    def removal_probabilities(self, instances, masks) -> np.ndarray:
        assert len(instances) == len(masks)
        rows = []
        for instance, stack in zip(instances, masks):
            for mask in np.asarray(stack, dtype=bool):
                assert len(mask) == len(instance)
                removed = frozenset(np.flatnonzero(mask).tolist())
                if removed not in self.table:
                    raise AssertionError(f"unscripted removal pattern: {sorted(removed)}")
                rows.append(self.table[removed])
        num_classes = len(next(iter(self.table.values())))
        return np.asarray(rows, dtype=np.float64).reshape(len(rows), num_classes)


def scripted_instance(n: int, label: int = 0) -> Instance:
    """Unpadded n-token instance for use with ScriptedModel."""
    return Instance(
        tokens=tuple(range(1, n + 1)),
        embeddings=np.eye(n, dtype=np.float64),
        label=label,
    )
