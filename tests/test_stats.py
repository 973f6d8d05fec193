"""Counter families (:mod:`repro.stats`): one declaration, every derived use.

Each family's fields are written once; ``as_dict``, ``from_dict``, ``add``,
``merged``, the exported samples and the locked ``count`` all derive from
that declaration.  These tests pin the derived shapes on a small family and
that ``count`` loses no increment under contention.
"""

import sys
import threading
from dataclasses import dataclass

from repro.stats import Family, LockedFamily, metric


@dataclass
class Example(LockedFamily):
    PREFIX = "repro_example"

    hits: int = metric("Hits.")
    depth: int = metric("Current depth.", "gauge", name="repro_depth_now")
    seed: float = metric("A seed.", "gauge", default=0.0)
    mark: int = metric("Twice the mark.", read=lambda family: 2 * family.mark)
    unexported: int = 0


def test_as_dict_from_dict_round_trip_in_declaration_order():
    family = Example(hits=3, depth=1, mark=4, unexported=7)
    raw = family.as_dict()
    assert list(raw) == ["hits", "depth", "seed", "mark", "unexported"]
    assert Example.from_dict(raw) == family


def test_add_and_merged_sum_every_field():
    parts = [Example(hits=1, mark=2, seed=0.5), Example(hits=4, unexported=5, seed=0.25)]
    total = Example.merged(parts)
    assert total.as_dict() == {
        "hits": 5, "depth": 0, "seed": 0.75, "mark": 2, "unexported": 5,
    }


def test_samples_carry_name_type_help_in_order():
    samples = list(Example(hits=2, depth=9, seed=None, mark=5).samples())
    assert samples == [
        ("repro_example_hits", "counter", "Hits.", 2.0),
        ("repro_depth_now", "gauge", "Current depth.", 9.0),
        ("repro_example_seed", "gauge", "A seed.", 0.0),
        ("repro_example_mark", "counter", "Twice the mark.", 10.0),
    ]


def test_count_loses_no_increment_under_contention():
    family = Example()
    threads_n, per_thread = 8, 2_000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: [family.count("hits") for _ in range(per_thread)]
            )
            for _ in range(threads_n)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert family.hits == threads_n * per_thread


def test_plain_family_has_no_lock():
    @dataclass
    class Plain(Family):
        n: int = metric("N.")

    assert not hasattr(Plain(), "count")
    assert Plain.merged([Plain(1), Plain(2)]) == Plain(3)
    assert Plain.from_dict(Plain(4).as_dict()) == Plain(4)
