"""Seeded input generation: graphs, factored artifacts, user and delta streams.

Everything the program under test receives is built here from the
workload seed, so the same seed always yields the same inputs.  None of
this is timed: set-up time starts only once the inputs exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse


@dataclass
class BlockGraph:
    """An undirected planted-partition graph, kept as an edge list."""

    n: int
    labels: np.ndarray
    edges: np.ndarray  # (m, 2) with u < v, unique

    def csr(self, edges: np.ndarray = None) -> sparse.csr_matrix:
        """Symmetric 0/1 adjacency of ``edges`` (default: all edges)."""
        edges = self.edges if edges is None else edges
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.size)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))


def block_graph(
    rng: np.random.Generator,
    n: int,
    communities: int,
    degree: float,
    p_in: float = 0.8,
) -> BlockGraph:
    """Planted partition: ``degree`` mean degree, ``p_in`` of it in-block."""
    labels = rng.integers(0, communities, size=n)
    members = [np.flatnonzero(labels == c) for c in range(communities)]
    m = int(n * degree / 2)
    u = rng.integers(0, n, size=m)
    inside = rng.random(m) < p_in
    v = rng.integers(0, n, size=m)
    for c in range(communities):
        pick = inside & (labels[u] == c)
        if members[c].size:
            v[pick] = members[c][rng.integers(0, members[c].size, pick.sum())]
    keep = u != v
    pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)[keep]
    pairs = np.unique(pairs, axis=0)
    return BlockGraph(n=n, labels=labels, edges=pairs)


def fitted_predictor(known: sparse.csr_matrix):
    """The shipped refitter's factored estimate of the ``known`` links.

    A cold ``WarmRefitter(factored=True)`` fit with its defaults: the
    estimate a streaming deployment publishes.
    """
    from repro.streaming.refit import WarmRefitter

    return WarmRefitter(factored=True).refit(known)


def fit_shaped_predictor(
    rng: np.random.Generator, graph: BlockGraph, known: sparse.csr_matrix
):
    """A frozen factored estimate with the shape of :func:`fitted_predictor`.

    For graphs too large to fit on every run.  A cold fit of a 50000-user,
    256-block graph of mean degree 10 (about a minute on a 2-vCPU host)
    returned: rank 8 (the refitter's default rank cap), ``U = V`` with
    orthonormal columns, singular values from 10.7 down to 9.4, and a
    residual exactly on the known links with values in [-0.025, 0].  This
    estimate copies those sizes; ``U`` follows the block structure and
    the residual sits on the ``known`` links.
    """
    from repro.factored.estimate import FactoredEstimate
    from repro.models.persistence import FrozenFactoredPredictor
    from repro.streaming.refit import WarmRefitter

    rank = WarmRefitter().svd_rank
    centroids = rng.normal(size=(int(graph.labels.max()) + 1, rank))
    u = centroids[graph.labels] + 0.6 * rng.normal(size=(graph.n, rank))
    u, _ = np.linalg.qr(u)
    s = np.linspace(10.7, 9.4, rank)
    residual = known.copy()
    residual.data = rng.uniform(-0.025, 0.0, size=residual.nnz)
    estimate = FactoredEstimate(u, s, u.T.copy(), residual)
    return FrozenFactoredPredictor(estimate, {"name": "perfbench-fit-shaped"})


def publish_factored(store_dir: str, predictor, graph_csr) -> int:
    """Publish as a memory-mappable npy-layout version; returns it."""
    from repro.serving.artifacts import ArtifactStore

    store = ArtifactStore(store_dir, layout="npy")
    return store.publish(predictor, graph=graph_csr, meta={"source": "perfbench"})


ZIPF_EXPONENT = 1.3
"""Skew of the hot user streams.  An assumption, not taken from a measured
trace: at 1.3 most requests of a 5000-user stream fall on the users a
1024-entry ranking cache can hold."""


def zipf_users(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` user ids with Zipf-skewed popularity over a shuffled ranking."""
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -ZIPF_EXPONENT
    weights /= weights.sum()
    order = rng.permutation(n)
    return order[rng.choice(n, size=count, p=weights)]


def uniform_users(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` user ids drawn uniformly."""
    return rng.integers(0, n, size=count)


def holdout(
    rng: np.random.Generator, graph: BlockGraph, share: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Split the edge list into (kept, held out)."""
    order = rng.permutation(len(graph.edges))
    cut = int(len(order) * share)
    return graph.edges[np.sort(order[cut:])], graph.edges[np.sort(order[:cut])]


def non_links(
    rng: np.random.Generator, graph: BlockGraph, count: int
) -> List[Tuple[int, int]]:
    """``count`` distinct user pairs that are not edges of the graph."""
    taken = {tuple(e) for e in graph.edges.tolist()}
    chosen = set()
    while len(chosen) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
        pair = (min(u, v), max(u, v))
        if u != v and pair not in taken:
            chosen.add(pair)
    return sorted(chosen)
