"""Fractional and integral edge covers (Section 3, "Width Measures").

Given a conjunctive query ``Q`` and a variable set ``F ⊆ vars(Q)``, a
fractional edge cover assigns a weight ``λ_{R(X)} ∈ [0, 1]`` to every atom so
that each variable of ``F`` is covered with total weight at least one; the
fractional edge cover number ``ρ*(F)`` is the minimum total weight, solved
here as a linear program with :func:`scipy.optimize.linprog`.  The integral
edge cover number ``ρ(F)`` restricts weights to ``{0, 1}`` and is computed by
exhaustive search over atom subsets (queries are tiny in data complexity).

Lemma 30 of the paper states that ``ρ*(F) = ρ(F)`` for hierarchical queries,
so the width measures, which are defined only for hierarchical queries, use
``ρ`` and never load the LP solver; ``numpy``/``scipy`` are imported inside
:func:`fractional_edge_cover` alone.  The tests assert the equality on
randomly generated hierarchical queries and on every query the planner serves.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Sequence, Tuple

from repro.query.atom import Atom
from repro.query.conjunctive import ConjunctiveQuery


def fractional_edge_cover(
    atoms: Sequence[Atom], variables: Iterable[str]
) -> Tuple[float, Dict[Atom, float]]:
    """Solve the fractional edge cover LP.

    Returns ``(ρ*, weights)``.  Raises ``ValueError`` when some variable is
    not covered by any atom (the LP would be infeasible).
    """
    targets = [v for v in dict.fromkeys(variables)]
    atoms = list(atoms)
    if not targets:
        return 0.0, {atom: 0.0 for atom in atoms}
    for variable in targets:
        if not any(variable in atom.variables for atom in atoms):
            raise ValueError(f"variable {variable!r} is not covered by any atom")
    import numpy as np
    from scipy.optimize import linprog
    n = len(atoms)
    c = np.ones(n)
    # constraints: for each target variable, sum of weights of covering atoms >= 1
    a_ub = np.zeros((len(targets), n))
    for row, variable in enumerate(targets):
        for col, atom in enumerate(atoms):
            if variable in atom.variables:
                a_ub[row, col] = -1.0
    b_ub = -np.ones(len(targets))
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n, method="highs")
    if not result.success:  # pragma: no cover - defensive; LP is always feasible here
        raise RuntimeError(f"edge cover LP failed: {result.message}")
    weights = {atom: float(w) for atom, w in zip(atoms, result.x)}
    return float(result.fun), weights


def integral_edge_cover(
    atoms: Sequence[Atom], variables: Iterable[str]
) -> Tuple[int, Tuple[Atom, ...]]:
    """Smallest number of atoms covering ``variables`` (exhaustive search).

    Returns ``(ρ, chosen_atoms)``.  Raises ``ValueError`` when no subset
    covers the variables.
    """
    targets = set(variables)
    atoms = list(atoms)
    if not targets:
        return 0, ()
    relevant = [atom for atom in atoms if targets & set(atom.variables)]
    for size in range(1, len(relevant) + 1):
        for subset in combinations(relevant, size):
            covered: set = set()
            for atom in subset:
                covered.update(atom.variables)
            if targets <= covered:
                return size, subset
    raise ValueError(f"variables {sorted(targets)} cannot be covered by the atoms")


def rho_star(
    query_or_atoms, variables: Iterable[str]
) -> float:
    """``ρ*_Q(F)``: fractional edge cover number of ``variables``.

    Accepts either a :class:`ConjunctiveQuery` or a sequence of atoms.
    """
    atoms = _atoms_of(query_or_atoms)
    value, _ = fractional_edge_cover(atoms, variables)
    return value


def rho(query_or_atoms, variables: Iterable[str]) -> int:
    """``ρ_Q(F)``: integral edge cover number of ``variables``."""
    atoms = _atoms_of(query_or_atoms)
    value, _ = integral_edge_cover(atoms, variables)
    return value


def _atoms_of(query_or_atoms) -> Tuple[Atom, ...]:
    if isinstance(query_or_atoms, ConjunctiveQuery):
        return query_or_atoms.atoms
    return tuple(query_or_atoms)
