"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Sequence, Tuple

import pytest

from repro import Database, HierarchicalEngine
from repro.engine import evaluate_query_naive
from repro.query import parse_query

# ----------------------------------------------------------------------
# queries from the paper, reused throughout the tests
# ----------------------------------------------------------------------
PAPER_QUERIES: Dict[str, str] = {
    # Example 28 (δ1, not free-connex, w = 2)
    "path": "Q(A, C) = R(A, B), S(B, C)",
    # Example 29 (δ1, free-connex, w = 1)
    "semijoin": "Q(A) = R(A, B), S(B)",
    # Example 18 (free-connex, δ1)
    "example18": "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",
    # Example 19 (w = 3, δ = 3)
    "example19": "Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
    # Example 12 (free-connex, hierarchical, not q-hierarchical)
    "example12": "Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)",
    # q-hierarchical examples
    "single": "Q(A, B) = R(A, B)",
    "qhier": "Q(A, B) = R(A, B), S(A)",
    # Boolean query
    "boolean": "Q() = R(A, B), S(B)",
    # Cartesian product of two components
    "product": "Q(A, C) = R(A, B), S(C, D)",
    # star query with dynamic width 2 (Definition 5 example with i = 2)
    "star2": "Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)",
}


@pytest.fixture(scope="session")
def paper_queries() -> Dict[str, str]:
    return dict(PAPER_QUERIES)


def random_database(
    schemas: Dict[str, Sequence[str]],
    tuples_per_relation: int = 25,
    domain: int = 6,
    seed: int = 0,
) -> Database:
    """A small random database for the given relation schemas."""
    rng = random.Random(seed)
    contents = {}
    for name, columns in schemas.items():
        rows = [
            tuple(rng.randrange(domain) for _ in columns)
            for _ in range(tuples_per_relation)
        ]
        contents[name] = (tuple(columns), rows)
    return Database.from_dict(contents)


def schemas_for(query_text: str) -> Dict[str, Tuple[str, ...]]:
    """Relation schemas (named by the query variables) for a query string."""
    query = parse_query(query_text)
    return {atom.relation: atom.variables for atom in query.atoms}


def assert_engine_matches_naive(query_text: str, database: Database, **engine_kwargs):
    """Build an engine, load the database, and compare with naive evaluation."""
    query = parse_query(query_text)
    truth = evaluate_query_naive(query, database).as_dict()
    engine = HierarchicalEngine(query, **engine_kwargs)
    engine.load(database)
    assert engine.result() == truth
    return engine, truth


@pytest.fixture
def path_database() -> Database:
    """A small skewed database for the path query (Example 28)."""
    rows_r = [(a, b) for a in range(8) for b in range(4) if (a + b) % 2 == 0]
    rows_r += [(a, 0) for a in range(8, 20)]  # value 0 is heavy in R
    rows_s = [(b, c) for b in range(4) for c in range(5) if (b * c) % 3 != 1]
    rows_s += [(0, c) for c in range(5, 12)]  # value 0 is heavy in S as well
    return Database.from_dict({"R": (("A", "B"), rows_r), "S": (("B", "C"), rows_s)})


def wait_until(predicate: Callable[[], bool], timeout: float = 10.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds passed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()
