"""Synthetic relation generators.

The paper's cost statements are driven by two data characteristics: database
size ``N`` and the *degree distribution* of join values (how many tuples
share a join key).  The generators below control both, so benchmarks can
exercise the light-only regime (uniform low degrees), the heavy-only regime
(a few very hot keys), and the mixed Zipf regime where the skew-aware
partitioning actually pays off.

All generators take an explicit ``seed`` and return plain tuple lists or
:class:`~repro.data.database.Database` objects, so every benchmark and test
is reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.database import Database


def uniform_pairs(
    count: int, domain: int, seed: int = 0, offset: int = 0
) -> List[Tuple[int, int]]:
    """``count`` distinct-ish pairs drawn uniformly from ``[0, domain)²``."""
    rng = random.Random(seed)
    return [
        (rng.randrange(domain) + offset, rng.randrange(domain) + offset)
        for _ in range(count)
    ]


def zipf_values(count: int, domain: int, exponent: float, seed: int = 0) -> List[int]:
    """``count`` values in ``[0, domain)`` following a Zipf-like distribution.

    Rank ``r`` (0-based) is drawn with probability proportional to
    ``1 / (r + 1)^exponent``; exponent 0 degenerates to uniform.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, domain + 1, dtype=float)
    weights = 1.0 / np.power(ranks, exponent)
    weights /= weights.sum()
    return [int(v) for v in rng.choice(domain, size=count, p=weights)]


def zipf_pairs(
    count: int,
    key_domain: int,
    value_domain: int,
    exponent: float = 1.0,
    seed: int = 0,
    key_position: int = 1,
) -> List[Tuple[int, int]]:
    """Pairs whose join-key column follows a Zipf distribution.

    ``key_position`` selects whether the skewed column is the first (0) or
    second (1) component, matching the ``R(A, B)`` / ``S(B, C)`` orientation
    of Example 28 where ``B`` is the join key.
    """
    rng = random.Random(seed + 1)
    keys = zipf_values(count, key_domain, exponent, seed)
    pairs = []
    for key in keys:
        other = rng.randrange(value_domain)
        if key_position == 0:
            pairs.append((key, other))
        else:
            pairs.append((other, key))
    return pairs


def heavy_hitter_pairs(
    count: int,
    heavy_keys: int,
    heavy_fraction: float,
    key_domain: int,
    value_domain: int,
    seed: int = 0,
    key_position: int = 1,
) -> List[Tuple[int, int]]:
    """Pairs where a handful of join keys receive a fixed fraction of tuples.

    ``heavy_fraction`` of the tuples use one of ``heavy_keys`` hot keys; the
    rest are uniform over the full key domain.  This produces exactly the
    bimodal degree distribution that separates the heavy and light strategies
    of the skew-aware view trees.
    """
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        if rng.random() < heavy_fraction:
            key = rng.randrange(heavy_keys)
        else:
            key = rng.randrange(key_domain)
        other = rng.randrange(value_domain)
        pairs.append((key, other) if key_position == 0 else (other, key))
    return pairs


def path_query_database(
    size: int,
    skew: float = 1.0,
    domain_factor: float = 0.5,
    seed: int = 0,
) -> Database:
    """A database for ``Q(A, C) = R(A, B), S(B, C)`` with Zipf join keys.

    ``size`` is the number of tuples per relation; the join-key domain is
    ``size * domain_factor`` so the average degree stays constant as ``size``
    grows and skew (controlled by the Zipf exponent) decides how heavy the
    heaviest keys are.
    """
    domain = max(4, int(size * domain_factor))
    r = zipf_pairs(size, domain, domain, exponent=skew, seed=seed, key_position=1)
    s = zipf_pairs(size, domain, domain, exponent=skew, seed=seed + 7, key_position=0)
    return Database.from_dict({"R": (("A", "B"), r), "S": (("B", "C"), s)})


def star_query_database(
    size: int,
    branches: int = 3,
    skew: float = 1.0,
    seed: int = 0,
) -> Database:
    """A database for the star query ``Q(Y₀,…) = R₀(X, Y₀), …, R_k(X, Y_k)``.

    The shared variable ``X`` follows a Zipf distribution in every relation,
    which is the worst case for the δ_k-hierarchical star queries used in the
    landscape benchmark (Figure 2).
    """
    domain = max(4, size // 2)
    contents = {}
    for i in range(branches):
        pairs = zipf_pairs(
            size, domain, domain, exponent=skew, seed=seed + i, key_position=0
        )
        contents[f"R{i}"] = ((f"X", f"Y{i}"), pairs)
    return Database.from_dict(contents)


def free_connex_database(size: int, seed: int = 0) -> Database:
    """A database for ``Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)`` (Example 18)."""
    rng = random.Random(seed)
    domain = max(4, size // 3)
    r = [
        (rng.randrange(domain), rng.randrange(8), rng.randrange(8))
        for _ in range(size)
    ]
    s = [
        (rng.randrange(domain), rng.randrange(8), rng.randrange(16))
        for _ in range(size)
    ]
    t = [(rng.randrange(domain), rng.randrange(16)) for _ in range(size)]
    return Database.from_dict(
        {"R": (("A", "B", "C"), r), "S": (("A", "B", "D"), s), "T": (("A", "E"), t)}
    )


def example19_database(size: int, skew: float = 1.0, seed: int = 0) -> Database:
    """A database for the four-atom query of Example 19 with Zipf (A, B) keys."""
    rng = random.Random(seed)
    domain = max(4, size // 3)
    a_values = zipf_values(size, domain, skew, seed)
    b_domain = max(2, int(size ** 0.4))
    c_domain = max(2, int(size ** 0.4))

    def triples(seed_offset: int, second_domain: int) -> List[Tuple[int, int, int]]:
        local = random.Random(seed + seed_offset)
        return [
            (a, local.randrange(second_domain), local.randrange(16))
            for a in zipf_values(size, domain, skew, seed + seed_offset)
        ]

    return Database.from_dict(
        {
            "R": (("A", "B", "D"), triples(1, b_domain)),
            "S": (("A", "B", "E"), triples(2, b_domain)),
            "T": (("A", "C", "F"), triples(3, c_domain)),
            "U": (("A", "C", "G"), triples(4, c_domain)),
        }
    )


def bounded_degree_database(size: int, degree: int, seed: int = 0) -> Database:
    """A database for ``Q(A, C) = R(A, B), S(B, C)`` where every value has
    degree at most ``degree`` — the bounded-degree row of Figure 4."""
    rng = random.Random(seed)
    keys = size // max(1, degree)
    r = []
    s = []
    for key in range(max(1, keys)):
        for _ in range(degree):
            r.append((rng.randrange(size), key))
            s.append((key, rng.randrange(size)))
    return Database.from_dict({"R": (("A", "B"), r[:size]), "S": (("B", "C"), s[:size])})
