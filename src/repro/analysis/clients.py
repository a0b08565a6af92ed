"""Client-population diagnostics: similarity graphs and clustering.

In heterogeneous FL deployments it is useful to know *which clients hold
similar data* — e.g. to explain why some clients' knowledge dominates the
aggregate, or to group clients for staged rollouts.  These tools build a
client similarity graph (from label distributions or prototypes) with
networkx and find communities.

networkx is an optional dependency (``pip install repro[analysis]``): it is
imported inside the two graph functions, so the similarity functions and the
rest of ``repro`` work without it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "label_distribution_similarity",
    "prototype_similarity",
    "build_client_graph",
    "client_communities",
]


def label_distribution_similarity(class_counts: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise client similarity from label histograms.

    Uses the Bhattacharyya coefficient of the normalised label
    distributions: 1 means identical class mixes, 0 means disjoint classes.
    """
    dists = []
    for counts in class_counts:
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total == 0:
            raise ValueError("a client has zero samples")
        dists.append(counts / total)
    n = len(dists)
    sim = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            coeff = float(np.sqrt(dists[i] * dists[j]).sum())
            sim[i, j] = sim[j, i] = coeff
    return sim


def prototype_similarity(client_prototypes: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise client similarity from their local prototypes.

    Mean cosine similarity over the classes both clients cover; NaN-safe.
    Clients sharing no classes get similarity 0.
    """
    n = len(client_prototypes)
    sim = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = client_prototypes[i], client_prototypes[j]
            both = ~(np.isnan(a).any(axis=1) | np.isnan(b).any(axis=1))
            if not both.any():
                sim[i, j] = sim[j, i] = 0.0
                continue
            va, vb = a[both], b[both]
            norms = np.linalg.norm(va, axis=1) * np.linalg.norm(vb, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                cos = np.where(norms > 0, (va * vb).sum(axis=1) / norms, 0.0)
            sim[i, j] = sim[j, i] = float(cos.mean())
    return sim


def build_client_graph(
    similarity: np.ndarray, threshold: float = 0.5
) -> nx.Graph:
    """Build a weighted client graph keeping edges above ``threshold``."""
    import networkx as nx

    similarity = np.asarray(similarity)
    if similarity.ndim != 2 or similarity.shape[0] != similarity.shape[1]:
        raise ValueError("similarity must be a square matrix")
    graph = nx.Graph()
    n = similarity.shape[0]
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if similarity[i, j] >= threshold:
                graph.add_edge(i, j, weight=float(similarity[i, j]))
    return graph


def client_communities(
    similarity: np.ndarray, threshold: float = 0.5
) -> List[set]:
    """Cluster clients by greedy modularity over the similarity graph.

    Isolated clients come back as singleton communities.
    """
    import networkx as nx

    graph = build_client_graph(similarity, threshold=threshold)
    if graph.number_of_edges() == 0:
        return [{node} for node in graph.nodes]
    communities = nx.community.greedy_modularity_communities(graph, weight="weight")
    return [set(c) for c in communities]
