import numpy as np
import pytest

from socialhk import graphs, slowmerge, spectral
from socialhk.graphs import Graph

# the package's memo caches, taken before any test can patch the names
_CACHES = (spectral.decompose, graphs.diameter, slowmerge._side_spectrum)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_connected_graph(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        attach = order[rng.integers(0, idx)]
        edges.add((int(order[idx]), int(attach)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((i, j))
    return Graph(n, frozenset(edges))


@pytest.fixture
def rng():
    return philox(12345)


@pytest.fixture(autouse=True, scope="module")
def cold_caches():
    """Empty the memo caches after each test module, so no later module (the
    bench's tests among them) finds them warm and skips the calls it counts."""
    yield
    for cached in _CACHES:
        cached.cache_clear()
