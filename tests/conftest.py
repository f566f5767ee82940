import numpy as np
import pytest

from tilelab import enumerate_reachable, new_grid

# 4x4 configuration solved by RDDRD; blank written as 0
EXAMPLE_CELLS = (1, 0, 2, 4, 5, 6, 3, 8, 9, 10, 7, 11, 13, 14, 15, 12)


def code_depths(table):
    """(code, depth) of every state of a census, as Python ints, in the
    table's order: level by level, each level ascending."""
    depths = np.repeat(np.arange(len(table.depth_histogram)), table.depth_histogram)
    return list(zip(table.codes.tolist(), depths.tolist()))


@pytest.fixture
def example_grid():
    return new_grid(4, EXAMPLE_CELLS)


@pytest.fixture(scope="session")
def table2():
    return enumerate_reachable(2)


@pytest.fixture(scope="session")
def table3():
    return enumerate_reachable(3)
