"""Enumeration: plans compiled per view-tree shape, Union, result enumeration."""

from repro.enumeration.plan import EnumerationPlan, compile_enumeration
from repro.enumeration.result import ResultEnumerator
from repro.enumeration.union import union

__all__ = [
    "EnumerationPlan",
    "ResultEnumerator",
    "compile_enumeration",
    "union",
]
