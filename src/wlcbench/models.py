"""The fitted models of the three baselines, without their fit code (in
``shallow`` and ``maskedlr``): all that ``modelio`` needs to load one."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass
class KMeansModel:
    centroids: np.ndarray                     # k×d float64, values in [0, 1]
    inertia: float
    cluster_to_class: dict[int, int] | None   # injective cluster -> class id
    seed: int
    n_init: int
    max_iter: int
    inertia_history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class Tree:
    """Flat binary tree: feature[i] < 0 marks node i as a leaf.

    Nodes are numbered in depth-first pre-order: a node, then its whole left
    subtree, then its right subtree. An internal node sends a row left when
    its feature value is <= the threshold.
    """

    feature: np.ndarray    # int16, -1 for leaves
    threshold: np.ndarray  # float64, 0 for leaves
    left: np.ndarray       # int32 child index, -1 for leaves
    right: np.ndarray      # int32 child index, -1 for leaves
    probs: np.ndarray      # n_nodes×10 float64, zero rows for internal nodes

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]
    max_depth: int
    n_features: int
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def d(self) -> int:
        return self.n_features

    @cached_property
    def nodes(self) -> NodeTable:
        """The trees stacked into one table, built on first use. The model
        is frozen, so the table cannot go stale."""
        return _stack_trees(self.trees)


@dataclass(frozen=True)
class NodeTable:
    """Every tree of a forest in one node table, so rows step through all
    trees at once.

    Tree t's nodes follow those of the trees before it and start at
    roots[t]. A row at node i moves to child[2*i + 1] (left) when its value
    of feature[i] is <= threshold[i], else to child[2*i] (right), so a NaN
    goes right. A leaf has feature 0, threshold +inf and itself as both
    children: a row that reaches it stays. After ``depth`` steps, the
    deepest tree's depth, every row is at a leaf.
    """

    feature: np.ndarray    # intp
    threshold: np.ndarray  # float64
    child: np.ndarray      # intp, two slots per node
    probs: np.ndarray      # n_nodes×10 float64
    roots: np.ndarray      # intp, one per tree
    depth: int


def _stack_trees(trees: tuple[Tree, ...]) -> NodeTable:
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.intp)
    leaf = feature < 0
    own = np.arange(len(feature))
    child = np.empty(2 * len(feature), dtype=np.intp)
    child[1::2] = np.where(leaf, own, np.concatenate([t.left for t in trees]) + offset)
    child[0::2] = np.where(leaf, own, np.concatenate([t.right for t in trees]) + offset)
    # Pre-order numbering puts children after their parent, so one pass per
    # level finds the depth without recursion.
    depth, level = 0, roots
    while len(level := level[~leaf[level]]):
        level = child[2 * level[:, None] + (0, 1)].ravel()
        depth += 1
    return NodeTable(
        feature=np.where(leaf, 0, feature),
        threshold=np.where(leaf, np.inf, np.concatenate([t.threshold for t in trees])),
        child=child,
        probs=np.vstack([tree.probs for tree in trees]),
        roots=roots,
        depth=depth,
    )


@dataclass(frozen=True)
class LogRegConfig:
    learning_rate: float = 0.1
    batch_size: int = 4096
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("batch_size", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class LogRegModel:
    weights: np.ndarray      # d×10 float64
    bias: np.ndarray         # 10 float64
    config: LogRegConfig
    loss_curve: tuple[float, ...] = field(default_factory=tuple)
    holdout_curve: tuple[float, ...] = field(default_factory=tuple)
    best_epoch: int | None = None

    @property
    def d(self) -> int:
        return self.weights.shape[0]
