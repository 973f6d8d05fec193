"""Multiplicity-aware joins over variable-named relations, compiled per schema.

The view trees name their columns with query variables, while the stored
relations may use arbitrary column names; :class:`BoundRelation` provides the
positional aliasing between the two and the probing primitives (point
lookups and index slices by partial variable assignments) that enumeration
uses.

Every join in the library — materialization, delta propagation
(``Apply``, Figure 17), the per-commit result delta, the baselines — is
:func:`fold_join`: an accumulator of ``tuple → multiplicity`` entries is
folded through the sibling relations one at a time, each tuple probing the
next sibling through a hash index on the shared variables, and variables
needed neither by the output nor by a later sibling are aggregated away as
soon as they are joined (an InsideOut-style early aggregation, which is what
keeps the materialization costs within the bounds of Proposition 21 on the
light parts).

**Plans.**  What such a fold does per tuple is fixed by three schemas: the
start schema, the sibling schemas in probe order, and the output schema.
:func:`compile_join` turns that signature into a :class:`JoinPlan` once and
memoises it: one generated function per sibling holding the probe mode the
schemas dictate — *point* lookup when the accumulator binds every sibling
column, an *index* group on the shared columns when it binds some, a full
*scan* when it binds none — with the key and the output tuple written as
literal subscripts of the accumulator tuple ``a`` and the matched sibling
tuple ``t``.  The output tuple of a step already omits every variable that no
later step and no output column needs, and the last step emits in output
order, so each joined tuple is built once and there is no separate projection
or reordering pass.  A step costs one loop with the index resolved once, then
one constant-time probe per accumulator tuple and one dictionary update per
joined tuple — the unit the paper's ``O(N^{δε})`` update bound counts.

**No invalidation.**  A plan reads nothing but schemas: not the data, not ε,
not the heavy/light split, not which relation object stands behind a schema.
Retunes, rebalances, reshards and ``invalidate_indexes()`` change contents
and indexes, which a step looks up afresh on every call; the plan stays
valid, and two views with the same schemas share one.

**Smaller first.**  The order in which siblings are probed is still chosen
per call, by current size, so the accumulator stays small; the choice only
selects which memoised plan runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.relation import Relation
from repro.data.schema import Schema, ValueTuple
from repro.exceptions import SchemaError


class BoundRelation:
    """A relation whose columns are (re)named by query variables.

    The variable at position ``i`` corresponds to the ``i``-th column of the
    underlying relation; tuples exposed by this wrapper are ordered by the
    variable schema, which coincides with the stored order.
    """

    __slots__ = ("variables", "relation", "_key_memo")

    def __init__(self, variables: Sequence[str], relation: Relation) -> None:
        self.variables: Schema = tuple(variables)
        if len(self.variables) != len(relation.schema):
            raise SchemaError(
                f"cannot bind variables {self.variables!r} to relation "
                f"{relation.name!r} with schema {relation.schema!r}"
            )
        self.relation = relation
        # Memo of _index_key results: enumeration probes the same shared
        # variable sets over and over, and the normalisation is pure.
        self._key_memo: Dict[Tuple[str, ...], Tuple[Schema, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.relation)

    def items(self) -> Iterable[Tuple[ValueTuple, int]]:
        """All ``(tuple, multiplicity)`` entries, tuples ordered by variables."""
        return self.relation.items()

    def multiplicity(self, tup: ValueTuple) -> int:
        """Multiplicity of a tuple given in variable order."""
        return self.relation.multiplicity(tup)

    # ------------------------------------------------------------------
    def _index_key(self, shared: Sequence[str]) -> Tuple[Schema, Tuple[str, ...]]:
        """Translate shared variables into the underlying index key schema.

        Returns ``(column_key_schema, variable_order)`` where the variable
        order matches the normalised column order of the index, so callers
        can build probe keys in the right order.
        """
        memo_key = tuple(shared)
        cached = self._key_memo.get(memo_key)
        if cached is not None:
            return cached
        positions = sorted(self.variables.index(v) for v in shared)
        normalised_columns = tuple(self.relation.schema[p] for p in positions)
        variable_order = tuple(self.variables[p] for p in positions)
        self._key_memo[memo_key] = (normalised_columns, variable_order)
        return normalised_columns, variable_order

    def matching(
        self, assignment: Mapping[str, object]
    ) -> Iterator[Tuple[ValueTuple, int]]:
        """Enumerate tuples agreeing with ``assignment`` on shared variables.

        Uses an index on the shared variables (constant-delay per result).
        When the assignment covers all variables this degenerates to a point
        lookup; when it covers none, the whole relation is enumerated.
        """
        shared = [v for v in self.variables if v in assignment]
        if len(shared) == len(self.variables):
            tup = tuple(assignment[v] for v in self.variables)
            mult = self.relation.multiplicity(tup)
            if mult:
                yield tup, mult
            return
        if not shared:
            yield from self.relation.items()
            return
        columns, variable_order = self._index_key(shared)
        key = tuple(assignment[v] for v in variable_order)
        yield from self.relation.ensure_index(columns).group_items(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundRelation({self.variables!r} -> {self.relation.name!r})"


# ----------------------------------------------------------------------
# compiled join plans
# ----------------------------------------------------------------------
def tuple_source(parts: Sequence[str]) -> str:
    """Source of a tuple display over ``parts`` (``(x,)`` for one part)."""
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _emit_source(out_schema: Schema, acc_schema: Schema, child: Schema) -> str:
    """Source of the output tuple, read from ``a`` (accumulator) and ``t``."""
    return tuple_source(
        [
            f"a[{acc_schema.index(v)}]" if v in acc_schema else f"t[{child.index(v)}]"
            for v in out_schema
        ]
    )


def _label(acc_schema: Schema, child: Optional[Schema], out_schema: Schema) -> str:
    """The file name a generated function reports in tracebacks and profiles."""
    probed = "" if child is None else f" * {','.join(child)}"
    return f"<join {','.join(acc_schema)}{probed} -> {','.join(out_schema)}>"


def _build(source: str, label: str) -> Callable:
    # The generated text holds positions (integer literals) and fixed names
    # only; schema strings appear in the label, never in the code.
    namespace: Dict[str, object] = {}
    exec(compile(source, label, "exec"), namespace)  # noqa: S102 - own source
    return namespace["step"]  # type: ignore[return-value]


class _Step(NamedTuple):
    mode: str
    source: str
    run: Callable[[Mapping[ValueTuple, int], Relation], Dict[ValueTuple, int]]


@lru_cache(maxsize=4096)
def _compile_step(acc_schema: Schema, child: Schema, out_schema: Schema) -> _Step:
    """The function folding one sibling in, its probe mode and its source.

    The function maps ``(acc, relation)`` to the next accumulator: one loop
    over ``acc`` probing ``relation`` the way the schemas dictate, emitting
    each joined tuple once, already projected onto ``out_schema``.
    """
    shared = [v for v in child if v in acc_schema]  # child order = index key order
    key = tuple_source([f"a[{acc_schema.index(v)}]" for v in shared])
    emit = _emit_source(out_schema, acc_schema, child)
    lines = ["def step(acc, relation):"]
    if len(shared) == len(child):
        mode = "point"
        lines += [
            "    multiplicity = relation.multiplicity",
            "    out = {}",
            "    get = out.get",
            "    for a, m in acc.items():",
            f"        c = multiplicity({key})",
            "        if c:",
            f"            k = {emit}",
            "            out[k] = get(k, 0) + m * c",
        ]
    else:
        if shared:
            mode = "index"
            columns = tuple_source([f"schema[{child.index(v)}]" for v in shared])
            lines += [
                "    schema = relation.schema",
                f"    probe = relation.ensure_index({columns}).group_items",
            ]
            matches = f"probe({key})"
        else:
            mode = "scan"
            lines.append("    items = list(relation.items())")
            matches = "items"
        lines += [
            "    out = {}",
            "    get = out.get",
            "    for a, m in acc.items():",
            f"        for t, c in {matches}:",
            f"            k = {emit}",
            "            out[k] = get(k, 0) + m * c",
        ]
    lines.append("    return out")
    source = "\n".join(lines)
    return _Step(mode, source, _build(source, _label(acc_schema, child, out_schema)))


def _compile_projection(acc_schema: Schema, out_schema: Schema) -> Tuple[str, Callable]:
    """The plan of a join with no sibling: a bare projection of ``acc``."""
    if acc_schema == out_schema:
        source = "def step(acc):\n    return dict(acc)"
    else:
        emit = _emit_source(out_schema, acc_schema, ())
        source = "\n".join(
            [
                "def step(acc):",
                "    out = {}",
                "    get = out.get",
                "    for a, m in acc.items():",
                f"        k = {emit}",
                "        out[k] = get(k, 0) + m",
                "    return out",
            ]
        )
    return source, _build(source, _label(acc_schema, None, out_schema))


class JoinPlan(NamedTuple):
    """A join compiled for one schema signature (see the module docstring).

    ``steps[i]`` folds the ``i``-th sibling (in probe order) into the
    accumulator; ``project`` replaces them when there is no sibling.
    ``modes`` and ``source`` are the readable side: the probe mode of every
    step and the generated code.
    """

    steps: Tuple[Callable, ...]
    project: Optional[Callable]
    modes: Tuple[str, ...]
    source: str


@lru_cache(maxsize=4096)
def compile_join(
    start_schema: Schema, sibling_schemas: Tuple[Schema, ...], output_schema: Schema
) -> JoinPlan:
    """Compile ``π_out(start ⋈ sibling₁ ⋈ … ⋈ siblingₖ)``, siblings in probe order."""
    available = set(start_schema).union(*sibling_schemas)
    missing = sorted(set(output_schema) - available)
    if missing:
        raise SchemaError(
            f"output schema {output_schema!r} requests variables {missing} "
            f"not produced by the join of {start_schema!r} with {sibling_schemas!r}"
        )
    if not sibling_schemas:
        source, project = _compile_projection(start_schema, output_schema)
        return JoinPlan((), project, (), source)
    steps: List[_Step] = []
    acc_schema = start_schema
    last = len(sibling_schemas) - 1
    for position, child in enumerate(sibling_schemas):
        if position == last:
            out_schema = output_schema
        else:
            needed = set(output_schema).union(*sibling_schemas[position + 1 :])
            out_schema = tuple(v for v in acc_schema if v in needed) + tuple(
                v for v in child if v in needed and v not in acc_schema
            )
        steps.append(_compile_step(acc_schema, child, out_schema))
        acc_schema = out_schema
    return JoinPlan(
        tuple(step.run for step in steps),
        None,
        tuple(step.mode for step in steps),
        "\n\n".join(step.source for step in steps),
    )


def fold_join(
    start_schema: Schema,
    start: Mapping[ValueTuple, int],
    children: Sequence[BoundRelation],
    output_schema: Schema,
) -> Dict[ValueTuple, int]:
    """Join ``start`` with every child and project to ``output_schema``.

    Smaller children are probed first so the accumulator stays small; the
    order only selects which memoised plan runs.  ``start`` is not modified.
    Entries whose multiplicities cancel are absent from the result.
    """
    if len(children) > 1:
        children = sorted(children, key=len)
    plan = compile_join(
        tuple(start_schema),
        tuple([child.variables for child in children]),
        tuple(output_schema),
    )
    if plan.project is not None:
        acc = plan.project(start)
    else:
        acc = start
        for step, child in zip(plan.steps, children):
            acc = step(acc, child.relation)
            if not acc:
                return {}
    if not all(acc.values()):
        # Signed deltas cancelled.  Zeros are dropped here and not inside a
        # step: an entry keeps the position its first contribution gave it.
        acc = {tup: mult for tup, mult in acc.items() if mult}
    return acc


def join_children(
    children: Sequence[BoundRelation], output_schema: Schema
) -> Dict[ValueTuple, int]:
    """Join a list of bound relations and project onto ``output_schema``."""
    if not children:
        return {(): 1}
    first, rest = children[0], children[1:]
    needed = set(output_schema).union(*[child.variables for child in rest])
    # Aggregate the first child down to what the rest of the join reads
    # before anything probes with it.
    start_schema = tuple(v for v in first.variables if v in needed)
    start = first.relation.as_dict()
    if start_schema != first.variables:
        start = fold_join(first.variables, start, (), start_schema)
    return fold_join(start_schema, start, rest, output_schema)


def join_to_relation(
    children: Sequence[BoundRelation], output_schema: Schema, name: str
) -> Relation:
    """Join children into a freshly materialized relation."""
    result = Relation(name, output_schema)
    for tup, mult in join_children(children, output_schema).items():
        result.apply_delta(tup, mult)
    return result


def delta_join(
    delta_schema: Schema,
    delta: Mapping[ValueTuple, int],
    siblings: Sequence[BoundRelation],
    output_schema: Schema,
) -> Dict[ValueTuple, int]:
    """Compute ``π_out(δ ⋈ sibling₁ ⋈ … ⋈ siblingₖ)``.

    This is the delta-rule primitive of Figure 17: the change of a view under
    a change of one of its children is the join of that change with the other
    children, projected to the view schema.
    """
    return fold_join(delta_schema, delta, siblings, output_schema)
