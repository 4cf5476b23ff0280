import math

import numpy as np
import pytest

from sbpart import engine
from sbpart.graph import Partition, build_graph

# Block counts on both sides of the dense M read, whatever `_DENSE_CELLS`
# is: the largest B read densely, the next one and one further above.
_K = math.isqrt(engine._DENSE_CELLS)
DENSE_STRADDLE = (_K, _K + 1, _K + _K // 6)


def random_graph(rng, max_nodes=50, min_nodes=5, density=3):
    """Small random directed multigraph for randomized checks."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    m = int(rng.integers(n, density * n + 1))
    edges = {}
    for _ in range(m):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        edges[(i, j)] = edges.get((i, j), 0) + int(rng.integers(1, 4))
    return build_graph([(i, j, w) for (i, j), w in edges.items()],
                       num_nodes=n)


def random_partition(rng, n, max_blocks=6):
    b = int(rng.integers(2, max_blocks + 1))
    return Partition(rng.integers(0, b, n).astype(np.int64), b).compact()


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def table1():
    """56-node truth/output pair whose contingency is [[30,2,0],[1,20,3]]."""
    truth = np.array([0] * 32 + [1] * 24)
    output = np.array([0] * 30 + [1] * 2 + [0] * 1 + [1] * 20 + [2] * 3)
    return truth, output
