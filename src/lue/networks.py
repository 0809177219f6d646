"""Directed graphs for interference experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exposure import as_int


@dataclass(frozen=True)
class Network:
    """Directed graph on n units; adjacency[i, j] = 1 means an edge i -> j.

    ``in_degrees`` (the column sums) is computed once here and is read-only,
    like the adjacency it is summed from.
    """

    adjacency: np.ndarray
    in_degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(a).any():
            raise ValueError("self-loops are not allowed")
        adjacency = a.astype(np.int64)
        in_degrees = adjacency.sum(axis=0)
        adjacency.flags.writeable = False
        in_degrees.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "in_degrees", in_degrees)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]



def gen_k_regular_directed(n: int, k: int, seed: int) -> Network:
    """Random directed graph where every unit has in-degree exactly k.

    Each unit independently selects k distinct in-neighbors uniformly at
    random; out-degrees are left irregular.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        # Position among the n - 1 other units, shifted past i to a unit index.
        sources = rng.choice(n - 1, size=k, replace=False)
        sources[sources >= i] += 1
        a[sources, i] = 1
    return Network(a)


def gen_erdos_renyi_directed(n: int, p_edge: float, seed: int) -> Network:
    """Directed Erdos-Renyi graph: each ordered pair gets an edge independently."""
    n = as_int(n, "n")
    if not 0 <= p_edge <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p_edge}")
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p_edge).astype(np.int64)
    np.fill_diagonal(a, 0)
    return Network(a)
