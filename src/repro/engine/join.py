"""Multiplicity-aware joins over variable-named relations, compiled per schema.

The view trees name their columns with query variables, while the stored
relations may use arbitrary column names: a join operand is a plain
``(schema, relation)`` pair, the variable at position ``i`` naming the
relation's ``i``-th column.

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
tuple ``t``.  A step reads storage directly: it binds the relation's tuple
map ``_data`` (and, for an index step, the index's group map ``_groups``)
once per call, so a probe is one dict lookup and a loop over the group's
dict, with no generator or method frame per probe.  The output tuple of a
step already omits every variable that no later step and no output column
needs, and the last step emits in output order, so each joined tuple is built
once and there is no separate projection or reordering pass.  A step costs
one loop with the index resolved once, then one constant-time probe per
accumulator tuple and one dictionary update per joined tuple — the unit the
paper's ``O(N^{δε})`` update bound counts.

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

#: One join operand: the variables naming a relation's columns, and the relation.
Operand = Tuple[Schema, Relation]


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
    if len(shared) == len(child):
        mode = "point"
        bind = ["multiplicity = relation._data.get"]
        probe = [f"c = multiplicity({key})", "if c:"]
    elif shared:
        mode = "index"
        columns = tuple_source([f"schema[{child.index(v)}]" for v in shared])
        bind = [
            "schema = relation.schema",
            f"group = relation.ensure_index({columns})._groups.get",
            "data = relation._data",
        ]
        probe = [f"for t in group({key}, ()):", "    c = data[t]"]
    else:
        mode = "scan"
        bind = ["items = list(relation.items())"]
        probe = ["for t, c in items:"]
    lines = [
        "def step(acc, relation):",
        *["    " + line for line in bind],
        "    out = {}",
        "    get = out.get",
        "    for a, m in acc.items():",
        *["        " + line for line in probe],
        f"            k = {emit}",
        "            out[k] = get(k, 0) + m * c",
        "    return out",
    ]
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
    children: Sequence[Operand],
    output_schema: Schema,
) -> Dict[ValueTuple, int]:
    """Join ``start`` with every ``(schema, relation)`` child and project to
    ``output_schema``.

    This is also the delta rule of ``Apply`` (Figure 17): the change of a
    view under a change of one child is the join of that change with the
    other children, projected to the view schema.  Smaller children are
    probed first so the accumulator stays small (a stable sort: equal sizes
    keep their given order); the order only selects which memoised plan
    runs.  ``start`` is not modified.  Entries whose multiplicities cancel
    are absent from the result.
    """
    if len(children) > 1:
        children = sorted(children, key=lambda child: len(child[1]))
    plan = compile_join(
        tuple(start_schema),
        tuple([schema for schema, _ in children]),
        tuple(output_schema),
    )
    if plan.project is not None:
        acc = plan.project(start)
    else:
        acc = start
        for step, (_, relation) in zip(plan.steps, children):
            acc = step(acc, relation)
            if not acc:
                return {}
    if not all(acc.values()):
        # Signed deltas cancelled.  Zeros are dropped here and not inside a
        # step: an entry keeps the position its first contribution gave it.
        acc = {tup: mult for tup, mult in acc.items() if mult}
    return acc


def join_children(
    children: Sequence[Operand], output_schema: Schema
) -> Dict[ValueTuple, int]:
    """Join ``(schema, relation)`` children and project onto ``output_schema``."""
    if not children:
        return {(): 1}
    (first_schema, first), rest = children[0], children[1:]
    needed = set(output_schema).union(*[schema for schema, _ in rest])
    # Aggregate the first child down to what the rest of the join reads
    # before anything probes with it.
    start_schema = tuple(v for v in first_schema if v in needed)
    start = first.as_dict()
    if start_schema != first_schema:
        start = fold_join(first_schema, start, (), start_schema)
    return fold_join(start_schema, start, rest, output_schema)

