import sys

import pytest

from ckcenter import Graph

from oracles import exhaustive_graphs, random_corpus


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one line per acceptance criterion when that suite ran."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", ()) if mod else ()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def cycle_graph(n: int) -> Graph:
    verts = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        (f"e{i}", f"v{i}", f"v{i % n + 1}")
        for i in range(1, n + 1)
    ]
    return Graph(verts, edges)


@pytest.fixture
def g2() -> Graph:
    """Loop with a tail: c at v1, f from v1 to v2."""
    return Graph(["v1", "v2"], [("c", "v1", "v1"), ("f", "v1", "v2")])


@pytest.fixture
def g3() -> Graph:
    """Chain v1 -> v2 -> v3 -> v4."""
    return Graph(
        ["v1", "v2", "v3", "v4"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v4")],
    )


@pytest.fixture
def g4() -> Graph:
    """Exitless 3-cycle on v2,v3,v4 fed by v1, which also feeds sink v5."""
    return Graph(
        ["v1", "v2", "v3", "v4", "v5"],
        [
            ("a", "v1", "v2"),
            ("b", "v2", "v3"),
            ("c", "v3", "v4"),
            ("d", "v4", "v2"),
            ("f", "v1", "v5"),
        ],
    )


@pytest.fixture
def c3() -> Graph:
    return cycle_graph(3)


@pytest.fixture
def two_loop() -> Graph:
    """One vertex carrying two loops; each loop is the other's exit."""
    return Graph(["v1"], [("c", "v1", "v1"), ("d", "v1", "v1")])


@pytest.fixture
def chain2() -> Graph:
    return Graph(["v1", "v2"], [("e1", "v1", "v2")])


@pytest.fixture(scope="session")
def exhaustive_corpus() -> list[Graph]:
    return exhaustive_graphs(max_vertices=3, max_edges=4)


@pytest.fixture(scope="session")
def random_graphs() -> list[Graph]:
    return random_corpus(seed=20260819, count=500)


@pytest.fixture(scope="session")
def small_random_graphs(random_graphs) -> list[Graph]:
    return random_graphs[:80]


@pytest.fixture(scope="session")
def wide_random_graphs() -> list[Graph]:
    """Up to 10 vertices and 16 edges: past the exhaustive corpus, still
    within reach of the 2^|V| oracle sweep."""
    return random_corpus(seed=20261017, count=300, max_vertices=10, max_edges=16)
