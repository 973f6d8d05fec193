"""Reference (non-incremental) query evaluation.

``evaluate_query_naive`` joins all atoms of a conjunctive query and projects
onto the head, summing multiplicities.  It is intentionally simple: the rest
of the library (the skew-aware engine, the baselines, and above all the test
suite) uses it as the ground truth that every other evaluation strategy must
agree with.  :func:`validate_database` is the check, shared with the
planner, that a caller's database fits the query's atoms.
"""

from __future__ import annotations

from typing import Dict

from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import ValueTuple
from repro.engine.join import join_children
from repro.exceptions import SchemaError, UnknownRelationError
from repro.query.conjunctive import ConjunctiveQuery


def validate_database(query: ConjunctiveQuery, database: Database) -> None:
    """Check that the database provides every relation with the right arity."""
    for atom in query.atoms:
        try:
            relation = database.relation(atom.relation)
        except UnknownRelationError:
            raise UnknownRelationError(
                f"query atom {atom} references relation {atom.relation!r} "
                "which is missing from the database"
            ) from None
        if len(relation.schema) != atom.arity:
            raise SchemaError(
                f"atom {atom} has arity {atom.arity} but relation "
                f"{atom.relation!r} stores {len(relation.schema)} columns"
            )


def evaluate_query_naive(query: ConjunctiveQuery, database: Database) -> Relation:
    """Full join of the query body projected onto the head (bag semantics).

    The result relation's schema is the query head, in head order; its
    multiplicities are the sums over all valuations of the bound variables of
    the products of the input multiplicities — exactly the semantics the
    paper's enumeration procedures must reproduce tuple by tuple.  The
    database is checked first (:func:`validate_database`): the baselines
    evaluate a caller's database through here before anything else reads
    it.
    """
    validate_database(query, database)
    children = [(atom.variables, database.relation(atom.relation)) for atom in query.atoms]
    content = join_children(children, tuple(query.head))
    result = Relation(f"{query.name}_result", tuple(query.head))
    result.apply_deltas(content.items())
    return result


def evaluate_to_dict(
    query: ConjunctiveQuery, database: Database
) -> Dict[ValueTuple, int]:
    """Same as :func:`evaluate_query_naive` but returned as a plain dict."""
    return evaluate_query_naive(query, database).as_dict()
