"""Delta propagation through a view tree (``Apply``, Figure 17).

A single-tuple (or small batched) change to a leaf relation is propagated
along the path from that leaf to the root: at each view on the path the
change is joined with the sibling subtrees' current contents and projected
onto the view schema (the classical delta rule), then applied to the view.

Leaves are *not* modified here — base relations, light parts, and indicator
relations are shared across trees and are updated exactly once by the
maintenance layer before propagation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.data.schema import Schema, ValueTuple
from repro.engine.join import fold_join
from repro.views.view import ViewTreeNode

#: A delta maps tuples to *counting-ring* elements (signed multiplicities).
#: The propagation below relies only on the abelian-group laws the counting
#: ring shares with every ring in :mod:`repro.rings` — associativity,
#: commutativity, identity (zero entries are dropped), and inverses
#: (deletions are negated insertions).  Ring-valued aggregate payloads ride
#: these same deltas: the maintenance layer hands each commit's result-level
#: Delta to the registered aggregate listeners, which lift it into their
#: ring via :meth:`repro.rings.Ring.lift`.
Delta = Dict[ValueTuple, int]


def merge_delta(
    accumulator: Delta, pairs: Iterable[Tuple[ValueTuple, int]]
) -> Delta:
    """Fold ``(tuple, multiplicity)`` pairs into ``accumulator`` in place.

    The one merge of multiplicities (group addition in the counting
    ring): a commit's result delta into the capture accumulator, the
    shards' commit replies into the fleet's, a pushed delta into a
    subscriber's mirror.  Entries that cancel to the identity are removed rather than
    stored as zeros, keeping "absent" and "present at zero"
    indistinguishable — the invariant every consumer of a drained delta
    relies on.
    """
    for tup, mult in pairs:
        updated = accumulator.get(tup, 0) + mult
        if updated:
            accumulator[tup] = updated
        else:
            accumulator.pop(tup, None)
    return accumulator


def propagate_delta(
    tree: ViewTreeNode,
    source_name: str,
    delta_schema: Schema,
    delta: Mapping[ValueTuple, int],
) -> Optional[Tuple[Schema, Delta]]:
    """Propagate a change of the relation ``source_name`` through ``tree``.

    Returns ``(schema, delta)`` describing the induced change at the root of
    the tree, or ``None`` when the tree does not reference ``source_name``
    (in which case nothing is modified).  An empty delta short-circuits.

    The delta arrives in the stored (positional) order of the relation,
    which coincides with the changed leaf's variable order; it is read,
    never modified.  The path from that leaf to the root is fixed for the
    tree's lifetime (:meth:`~repro.views.view.ViewTreeNode.path_from`), so
    each call is one delta join per view on it and no search.
    """
    path = tree.path_from(source_name)
    if path is None:
        return None
    if not all(delta.values()):
        delta = {tup: mult for tup, mult in delta.items() if mult}
    if not delta:
        return None
    leaf, steps = path
    if not steps:
        return leaf.schema, dict(delta)
    schema = leaf.schema
    for view, siblings in steps:
        delta = fold_join(
            schema, delta, [(s.schema, s.relation()) for s in siblings], view.schema
        )
        if not delta:
            return tree.schema, {}
        view.relation().apply_deltas(delta.items())
        schema = view.schema
    return schema, delta
