"""Enumeration compiled per view-tree shape: open / next / lookup of Figures 13–16.

For a context (the values its ancestors fixed), a view-tree node enumerates
the *distinct* tuples over the free variables of its subtree, with their
multiplicities.  Three cases arise, mirroring the paper:

* **direct** — the node is a leaf, or its schema already covers the free
  variables of the subtree: enumerate its matching entries;
* **grounded** — the node has a heavy-indicator child ``∃H``: ground the
  indicator (one *bucket* per heavy key matching the context, each the
  Product of the other children) and take the Union of the buckets
  (:func:`~repro.enumeration.union.union`), which sums a tuple's
  multiplicities over the heavy keys producing it (cf. Example 28);
* **iterate** — otherwise: for every matching entry of the node (each adds
  the node's variables to the context), the Product of the children's
  enumerations.

The *lookup* of a tuple (what Union asks of its other sources) follows the
same cases: a point probe, a sum over the matching heavy keys, a product
over the children.

**Plans.**  Which case a node is, the variables it outputs, which columns it
is probed on and from where in the context, which position of which matched
tuple every output value comes from (on a shared variable the later child
wins) — all of it is fixed by the tree's *shape*
(:meth:`repro.views.view.ViewTreeNode.shape`) and the head order.
:func:`compile_enumeration` turns that pair into an :class:`EnumerationPlan`
once and memoises it.  The plan is generated code: the Products of Figure 16
are nested loops over ``relation.items()`` /
``ensure_index(...).group_items(...)`` with values read as literal
subscripts of the loop variables — no assignment dicts, no per-tuple tree
walk — and lookups are chains of ``multiplicity`` probes.  Only a bucket is
a function of its own (Union needs ``next`` / ``lookup`` callables per
source); its context arrives as one positional tuple.  The loop nest has the
odometer's order and its priming rule (a Product is over as soon as a child
opens empty), so the sequence is that of the open/next/close protocol.

**Binding.**  ``plan.bind(relations)`` takes the tree's relations in
pre-order — live ones, or a snapshot's frozen copies — and returns
``(open, lookup)`` closures over them.  Binding reads schemas (index key
columns) and nothing else; indexes are resolved where a loop is entered,
data is touched only once ``open()`` is iterated.

**Reads.**  ``plan.reads`` are the positions :meth:`_Compiler.probe` read;
``bind`` ignores the others (the subtree of a node enumerated *direct*, a
*grounded* node's own view), which may be ``None``.  A snapshot registers,
copies and freezes only ``reads`` (:mod:`repro.snapshot.versioned`).

**No invalidation.**  As with :func:`repro.engine.join.compile_join`, a plan
reads nothing but shape: not the data, not ε, not the heavy/light split, not
which relation object stands behind a node.  Updates, rebalances, retunes
and reloads change contents, which a bound plan looks up afresh; trees of
equal shape — across strategies, engines and shards — share one plan.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.data.relation import Relation
from repro.data.schema import Schema, ValueTuple
from repro.engine.join import tuple_source
from repro.enumeration.union import union
from repro.exceptions import EnumerationError

Env = Dict[str, str]  # variable -> source of the expression holding its value
# Receives the expressions of the values an item adds and its multiplicity
# factors; emits what is done per item.
Then = Callable[[Env, List[str]], None]

#: CPython compiles at most 20 statically nested loops.  A Product reaching
#: this depth moves its remaining children into a generator of their own,
#: which costs one loop; the margin is for the Products enclosing it.
MAX_LOOP_DEPTH = 10


class EnumerationPlan(NamedTuple):
    """Enumeration of one tree shape, compiled: ``bind(relations)`` returns
    ``(open, lookup)`` — ``open()`` generates ``(key, multiplicity)`` over
    ``out_vars``, ``lookup(key)`` is one key's multiplicity; ``reads`` are
    the pre-order positions those two read; ``source`` is the generated
    code."""

    bind: Callable[[Sequence[Optional[Relation]]], Tuple[Callable[[], Iterator], Callable[[ValueTuple], int]]]
    out_vars: Tuple[str, ...]
    reads: Tuple[int, ...]
    source: str


class _Node:
    """One node of a shape, numbered in pre-order like its relation."""

    __slots__ = ("index", "kind", "schema", "children", "variables")

    def __init__(self, shape, counter: Iterator[int]) -> None:
        self.kind, self.schema, child_shapes = shape
        self.index = next(counter)
        self.children = tuple(_Node(child, counter) for child in child_shapes)
        self.variables: FrozenSet[str] = frozenset(self.schema).union(
            *[child.variables for child in self.children]
        )

    def grounding(self) -> Tuple["_Node", Tuple["_Node", ...]]:
        """The indicator a grounded node grounds, and its other children."""
        indicator = next(c for c in self.children if c.kind == "indicator")
        return indicator, tuple(c for c in self.children if c is not indicator)


def _variables_of(nodes: Iterable[_Node]) -> FrozenSet[str]:
    return frozenset().union(*[node.variables for node in nodes])


class _Function:
    """The source of one generated function while it is being written."""

    def __init__(self, header: str) -> None:
        self.lines = [header]
        self.level = 1
        # One flag per open loop: whether a dying Product unwinds through it.
        self.loops: List[List[bool]] = []
        self.uses_dead = False

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.level + text)

    def block(self, header: str, body: Callable[[], None]) -> None:
        self.emit(header)
        self.level += 1
        body()
        self.level -= 1

    def loop(self, item: str, arity: int, mult: str, iterable: str, body: Callable[[], None]) -> None:
        """``for item, mult in iterable`` around the rest of the enumeration;
        ``item`` is a tuple of ``arity`` values."""
        unwinds = [False]
        self.loops.append(unwinds)
        start = len(self.lines)
        self.block(f"for {item}, {mult} in {iterable}:", body)
        self.loops.pop()
        whole = tuple_source([f"{item}[{p}]" for p in range(arity)])
        if self.lines[start + 1 :] == ["    " * (self.level + 1) + f"yield {whole}, {mult}"]:
            del self.lines[start:]
            self.emit(f"yield from {iterable}")
        if unwinds[0]:
            depth = len(self.loops)
            if depth:
                self.emit("if dead >= 0:")
                self.emit(f"    if dead == {depth}: dead = -1")
                self.emit("    else: break")
            else:
                self.emit("dead = -1")

    def die(self, flag: str, depth: int) -> None:
        """End a Product whose child just opened empty (the priming rule).

        One enclosing loop of the Product is left with ``break``.  Python
        has no labelled ``break`` for more: ``dead`` then names the loop
        depth the Product began at, and every loop it opened since
        re-breaks until that depth is reached.
        """
        self.emit(f"if not {flag}:")
        if len(self.loops) > depth + 1:
            self.emit(f"    dead = {depth}")
            self.uses_dead = True
            for unwinds in self.loops[depth:]:
                unwinds[0] = True
        self.emit("    break")

    def source(self) -> str:
        lines = self.lines
        if self.uses_dead:
            lines = lines[:1] + ["    dead = -1"] + lines[1:]
        return "\n".join(lines)


class _Compiler:
    """Writes the functions of one plan; ``items`` and ``lookup`` recurse."""

    def __init__(self, head: Tuple[str, ...]) -> None:
        self.head = head
        self.free = frozenset(head)
        self.bound_names: Dict[str, str] = {}  # evaluated once per bind()
        self.functions: List[str] = []
        self.reads: Set[int] = set()  # every R{i} the source names

    def out_vars(self, variables: Iterable[str], context: Iterable[str]) -> Tuple[str, ...]:
        """Free variables among ``variables`` the context leaves open, head order."""
        variables, context = set(variables), set(context)
        return tuple(v for v in self.head if v in variables and v not in context)

    def case(self, node: _Node) -> str:
        """Which of Figure 13's cases enumerates (and looks up) ``node``."""
        if not node.children or node.variables & self.free <= set(node.schema):
            return "direct"
        if any(child.kind == "indicator" for child in node.children):
            return "grounded"
        return "iterate"

    def probe(self, node: _Node, env: Env) -> Tuple[bool, str]:
        """How ``node``'s relation is read under ``env``.

        ``(True, multiplicity)`` when ``env`` binds every column, else
        ``(False, iterable of the matching (tuple, multiplicity) entries)``:
        the index group on the bound columns, or everything.
        """
        i, schema = node.index, node.schema
        self.reads.add(i)
        shared = [p for p, v in enumerate(schema) if v in env]
        if len(shared) == len(schema):
            self.bound_names[f"M{i}"] = f"R{i}.multiplicity"
            return True, f"M{i}({tuple_source([env[v] for v in schema])})"
        if not shared:
            return False, f"R{i}.items()"
        columns = f"C{i}_" + "_".join(map(str, shared))
        self.bound_names[columns] = tuple_source([f"R{i}.schema[{p}]" for p in shared])
        key = tuple_source([env[schema[p]] for p in shared])
        return False, f"R{i}.ensure_index({columns}).group_items({key})"

    def heavy_keys(self, f: _Function, node: _Node, env: Env, body) -> None:
        """``body(other children, env + the key's values)`` per heavy key of
        ``node``'s indicator that matches ``env`` (the grounding)."""
        indicator, others = node.grounding()
        point, probe = self.probe(indicator, env)
        if point:
            f.block(f"if {probe}:", lambda: body(others, env))
        else:
            h = f"h{node.index}"
            key = {v: f"{h}[{p}]" for p, v in enumerate(indicator.schema)}
            f.block(f"for {h}, _ in {probe}:", lambda: body(others, {**env, **key}))

    def open_bound_variable(self, node: _Node, env: Env) -> EnumerationError:
        # τ fixes every bound variable of a node it enumerates or probes
        # (by an ancestor's schema or a grounded indicator); summing the
        # variable out here would hide a tree that was not built by τ.
        return EnumerationError(
            f"node {node.schema!r} has a bound variable the context {tuple(env)!r} leaves open"
        )

    def generator(self, name: str, context: Sequence[str], out: Sequence[str], body) -> None:
        """``def name(e)``: yields keys over ``out``; ``e`` holds ``context``."""
        function = _Function(f"def {name}(e=()):")
        env = {v: f"e[{p}]" for p, v in enumerate(context)}
        body(
            function,
            env,
            lambda values, mults: function.emit(
                f"yield {tuple_source([values[v] for v in out])}, {' * '.join(mults) or '1'}"
            ),
        )
        self.functions.append(function.source())

    # -- open / next ---------------------------------------------------
    def items(self, f: _Function, node: _Node, env: Env, then: Then) -> None:
        """Emit the loop over ``node``'s items under ``env``, ``then`` per item."""
        getattr(self, self.case(node))(f, node, env, then)

    def direct(self, f: _Function, node: _Node, env: Env, then: Then) -> None:
        i = node.index
        point, probe = self.probe(node, env)
        if point:
            f.emit(f"m{i} = {probe}")
            f.block(f"if m{i}:", lambda: then({}, [f"m{i}"]))
            return
        if any(v not in env and v not in self.free for v in node.schema):
            raise self.open_bound_variable(node, env)
        values = {v: f"t{i}[{node.schema.index(v)}]" for v in self.out_vars(node.variables, env)}
        f.loop(f"t{i}", len(node.schema), f"m{i}", probe, lambda: then(values, [f"m{i}"]))

    def iterate(self, f: _Function, node: _Node, env: Env, then: Then) -> None:
        i = node.index
        out = self.out_vars(node.variables, env)

        def children(entry: Env) -> None:
            def emit(values: Env, mults: List[str]) -> None:
                merged = {**entry, **values}
                then({v: merged[v] for v in out}, mults)

            self.product(f, node.children, entry, emit)

        point, probe = self.probe(node, env)
        if point:
            f.block(f"if {probe}:", lambda: children(env))
        else:
            entry = {**env, **{v: f"t{i}[{p}]" for p, v in enumerate(node.schema)}}
            f.loop(f"t{i}", len(node.schema), "_", probe, lambda: children(entry))

    def product(self, f: _Function, children: Sequence[_Node], env: Env, then: Then) -> None:
        """Figure 16 as a loop nest: the last child varies fastest."""
        depth = len(f.loops)

        def step(j: int, values: Env, mults: List[str]) -> None:
            if j == len(children):
                then(values, mults)
                return
            child = children[j]
            # A later child that opens empty ends the whole Product (the
            # odometer never primes); without the check the earlier
            # children would be walked to their end for nothing.
            guarded = j > 0 and len(f.loops) > depth
            flag = f"n{child.index}"
            if guarded:
                f.emit(f"{flag} = False")

            def after(count: int) -> Then:
                def per_item(child_values: Env, child_mults: List[str]) -> None:
                    if guarded:
                        f.emit(f"{flag} = True")
                    step(j + count, {**values, **child_values}, mults + child_mults)

                return per_item

            if len(f.loops) < MAX_LOOP_DEPTH:
                self.items(f, child, env, after(1))
            else:
                rest, k = children[j:], child.index
                out = self.out_vars(_variables_of(rest), env)
                self.generator(
                    f"p{k}", tuple(env), out, lambda g, genv, emit: self.product(g, rest, genv, emit)
                )
                f.loop(
                    f"k{k}",
                    len(out),
                    f"m{k}",
                    f"p{k}({tuple_source(list(env.values()))})",
                    lambda: after(len(rest))({v: f"k{k}[{p}]" for p, v in enumerate(out)}, [f"m{k}"]),
                )
            if guarded:
                f.die(flag, depth)

        step(0, {}, [])

    def grounded(self, f: _Function, node: _Node, env: Env, then: Then) -> None:
        i = node.index
        indicator, others = node.grounding()
        context = tuple(env) + tuple(v for v in indicator.schema if v not in env)
        out = self.out_vars(_variables_of(others), context)
        if out != self.out_vars(node.variables, env):
            raise EnumerationError(
                f"the indicator {indicator.schema!r} grounds free variables the "
                f"context {tuple(env)!r} does not fix; buckets would not share a schema"
            )
        self.generator(
            f"b{i}", context, out, lambda g, genv, emit: self.product(g, others, genv, emit)
        )
        look = _Function(f"def l{i}(e, k):")
        look_env = {v: f"e[{p}]" for p, v in enumerate(context)}
        look_env.update({v: f"k[{p}]" for p, v in enumerate(out)})
        look.emit(f"return {self.product_lookup(look, others, look_env, 'v')}")
        self.functions.append(look.source())

        def ground(_others, grounded_env: Env) -> None:
            f.emit(f"e{i} = {tuple_source([grounded_env[v] for v in context])}")
            f.emit(
                f"s{i}.append((partial(next, b{i}(e{i}), None), partial(l{i}, e{i})))"
            )

        f.emit(f"s{i} = []")
        self.heavy_keys(f, node, env, ground)
        values = {v: f"k{i}[{p}]" for p, v in enumerate(out)}
        f.block(
            f"if s{i}:",
            lambda: f.loop(
                f"k{i}",
                len(out),
                f"m{i}",
                f"union(s{i})",
                lambda: then(values, [f"m{i}"]),
            ),
        )

    # -- lookup --------------------------------------------------------
    def lookup(self, f: _Function, node: _Node, env: Env) -> str:
        """Emit what computes ``node``'s multiplicity under ``env``; return
        the expression holding it.  ``env`` covers the subtree's free
        variables, so nothing is enumerated but matching heavy keys."""
        i = node.index
        case = self.case(node)
        if case == "iterate":
            # The children share only variables ``env`` fixes: factorise.
            return self.product_lookup(f, node.children, env, f"v{i}")
        if case == "direct":
            point, probe = self.probe(node, env)
            if not point:
                raise self.open_bound_variable(node, env)
            return probe
        f.emit(f"v{i} = 0")
        self.heavy_keys(
            f,
            node,
            env,
            lambda others, grounded_env: f.emit(
                f"v{i} += {self.product_lookup(f, others, grounded_env, f'u{i}')}"
            ),
        )
        return f"v{i}"

    def product_lookup(self, f: _Function, children: Sequence[_Node], env: Env, target: str) -> str:
        """The product of the children's lookups, cut short at the first 0."""
        if not children:
            return "1"
        if len(children) == 1:
            return self.lookup(f, children[0], env)
        level = f.level
        for j, child in enumerate(children):
            if j:
                f.emit(f"if {target}:")
                f.level += 1
            f.emit(f"{target} {'*=' if j else '='} {self.lookup(f, child, env)}")
        f.level = level
        return target


@lru_cache(maxsize=1024)
def compile_enumeration(shape, head: Schema) -> EnumerationPlan:
    """Compile open / next / lookup for one strategy-tree shape and head order."""
    numbering = itertools.count()
    root = _Node(shape, numbering)
    count = next(numbering)
    compiler = _Compiler(tuple(head))
    out = compiler.out_vars(root.variables, ())
    compiler.generator("open", (), out, lambda f, env, emit: compiler.items(f, root, env, emit))
    look = _Function("def lookup(k):")
    value = compiler.lookup(look, root, {v: f"k[{p}]" for p, v in enumerate(out)})
    look.emit(f"return {value}")
    compiler.functions.append(look.source())
    names = [f"R{i}" if i in compiler.reads else "_" for i in range(count)]
    lines = ["def bind(relations):", f"    {', '.join(names)}, = relations"]
    lines += [f"    {name} = {value}" for name, value in compiler.bound_names.items()]
    for function in compiler.functions:
        lines += ["    " + line for line in function.split("\n")]
    lines.append("    return open, lookup")
    source = "\n".join(lines)
    # The generated text holds positions and fixed names only; the schemas
    # appear in the label (what tracebacks and profiles report as the file).
    namespace: Dict[str, object] = {
        "partial": partial,
        "union": union,
    }
    label = f"<enumerate {_describe(shape)} -> {','.join(head)}>"
    exec(compile(source, label, "exec"), namespace)  # noqa: S102 - own source
    reads = tuple(sorted(compiler.reads))
    return EnumerationPlan(namespace["bind"], out, reads, source)  # type: ignore[arg-type]


def _describe(shape) -> str:
    kind, schema, children = shape
    text = ("∃" if kind == "indicator" else "") + f"({','.join(schema)})"
    return text + ("[" + " ".join(map(_describe, children)) + "]" if children else "")
