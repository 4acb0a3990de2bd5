"""Lifted (safe-plan) inference for hierarchical conjunctive queries.

Proposition 3.2 shows that conjunctive-query reliability is #P-hard *in
general*; the line of work this paper opened (Dalvi–Suciu's dichotomy)
later isolated exactly which conjunctive queries stay tractable: Boolean
CQs **without self-joins** whose variable structure is *hierarchical* —
for any two variables, the sets of atoms containing them are nested or
disjoint.  For those, the probability factorises and is computable in
polynomial time over tuple-independent databases — which is exactly what
an unreliable database's ``nu`` is.

The static classifier :func:`repro.logic.safety.classify_dichotomy`
decides safety and builds the safe plan; this module only *evaluates*
that plan:

* :func:`plan_probability` — exact ``Pr[B |= q]`` by walking a
  :class:`~repro.logic.safety.SafeVerdict`'s plan tree (independent
  join = product, independent project over a root variable =
  ``1 - prod_e (1 - child[x:=e])``, leaf = ``nu`` of the ground atom);
* :func:`lifted_probability` — classify once, then evaluate the plan;
* :func:`lifted_reliability` — the reliability of a safe Boolean CQ.

Unsafe queries raise :class:`UnsafeQueryError`; callers fall back to the
grounded-DNF engine (whose worst case is the Proposition 3.2 hardness).
Tests assert agreement with the exact engine on random databases, and
benchmark E11 measures the polynomial-vs-exponential gap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from repro import obs
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.fo import Formula
from repro.logic.safety import (
    PlanNode,
    SafeVerdict,
    UnsafeVerdict,
    classify_dichotomy,
)
from repro.logic.terms import Var
from repro.relational.atoms import Atom
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.util.errors import QueryError


class UnsafeQueryError(QueryError):
    """The query is outside the lifted-inference fragment.

    Raised for self-joins, non-hierarchical variable structures and
    queries outside the Boolean-CQ fragment; the caller should fall
    back to grounded exact inference or an estimator.  ``verdict`` is
    the static classifier's
    :class:`~repro.logic.safety.UnsafeVerdict` (the #P-hardness witness
    or the out-of-fragment reason).
    """

    def __init__(self, verdict: UnsafeVerdict):
        super().__init__(verdict.summary())
        self.verdict = verdict


QueryLike = Union[ConjunctiveQuery, Formula, str]

_HALF = Fraction(1, 2)


def is_uniform_half(db: UnreliableDatabase) -> bool:
    """True when every atom's error probability ``mu`` equals 1/2.

    This is the *uniform reliability* regime of Amarilli–Kimelfeld
    ("Uniform Reliability of Self-Join-Free Conjunctive Queries"):
    ``nu(A) = 1 - mu(A)`` if ``A`` holds and ``mu(A)`` otherwise, so
    with ``mu == 1/2`` everywhere every atom is present in the random
    world with probability exactly 1/2 *regardless of the observed
    structure* — the answer depends only on the query and the domain
    size.
    """
    table = db.error_table()
    if any(value != _HALF for value in table.values()):
        return False
    if db.default_error == _HALF:
        return True
    # The default is only reachable through atoms absent from the
    # table; a table covering the whole atom space is still uniform.
    return all(atom in table for atom in db.structure.atoms())


def plan_probability(db: UnreliableDatabase, verdict: SafeVerdict) -> Fraction:
    """Exact ``Pr[B |= q]`` by evaluating ``verdict``'s safe plan on ``db``.

    Polynomial time: a project node instantiates its root variable once
    per domain element, a join multiplies independent children, and a
    leaf is the ``nu``-value of its (now ground) atom.  On an all-1/2
    database (:func:`is_uniform_half`) the same walk uses the
    Amarilli–Kimelfeld rules instead — every leaf weighs 1/2 (its
    ``nu``, unless it names a constant outside the universe) and a
    project's ``n`` branches are identical, so it is ``1 - (1 - child)
    ** n`` with the child evaluated once: time polynomial in the
    *query* alone.
    """
    uniform = is_uniform_half(db)
    if uniform:
        obs.inc("lifted.uniform_fast_path")
    with obs.span("lifted.probability", atoms=len(verdict.atoms)):
        return _evaluate(db, verdict.plan, {}, uniform)


def _evaluate(
    db: UnreliableDatabase,
    node: PlanNode,
    binding: Dict[str, object],
    uniform: bool,
) -> Fraction:
    obs.inc("lifted.recursive_calls")
    checkpoint()
    if node.kind == "atom":
        atom = node.atom
        if uniform:
            # nu is 1/2 on the whole atom space; an atom naming a
            # constant outside the universe keeps the default error.
            universe = db.structure.universe
            constants = (t.value for t in atom.args if not isinstance(t, Var))
            if all(value in universe for value in constants):
                return _HALF
            return db.default_error
        args = tuple(
            binding[t.name] if isinstance(t, Var) else t.value
            for t in atom.args
        )
        return db.nu(Atom(atom.relation, args))
    if node.kind == "join":
        probability = Fraction(1)
        for child in node.children:
            probability *= _evaluate(db, child, binding, uniform)
            if probability == 0:
                break
        return probability
    obs.inc("lifted.projections")
    (child,) = node.children
    if uniform:
        miss = 1 - _evaluate(db, child, binding, uniform)
        return 1 - miss ** db.universe_size
    miss = Fraction(1)
    for element in db.structure.universe:
        binding[node.variable] = element
        miss *= 1 - _evaluate(db, child, binding, uniform)
        if miss == 0:
            break
    del binding[node.variable]
    return 1 - miss


def lifted_probability(db: UnreliableDatabase, query: QueryLike) -> Fraction:
    """Exact ``Pr[B |= q]`` for a safe Boolean conjunctive query.

    Classifies ``query`` once and evaluates the verdict's plan
    (:func:`plan_probability`); raises :class:`UnsafeQueryError`
    carrying the verdict when the query has no safe plan.
    """
    verdict = classify_dichotomy(query)
    if not verdict.safe:
        raise UnsafeQueryError(verdict)
    return plan_probability(db, verdict)


def uniform_reliability(db: UnreliableDatabase, query: QueryLike) -> Fraction:
    """``Pr[B |= q]`` of a safe CQ on an all-1/2 database, directly.

    A convenience entry point for the Amarilli–Kimelfeld fast path
    (:func:`plan_probability` switches to it automatically whenever
    :func:`is_uniform_half` holds); raises :class:`UnsafeQueryError`
    outside the safe fragment and :class:`QueryError` when the database
    is not uniform.
    """
    if not is_uniform_half(db):
        raise QueryError(
            "uniform_reliability requires an all-1/2 database; "
            "use lifted_probability for general error tables"
        )
    return lifted_probability(db, query)


def lifted_reliability(db: UnreliableDatabase, query: QueryLike) -> Fraction:
    """``R_q`` of a safe Boolean conjunctive query, in polynomial time.

    ``R_q = 1 - Pr[Wrong(q)]``: the probability that the random world
    agrees with the observed structure on ``q``.
    """
    from repro.reliability.exact import as_query

    p = lifted_probability(db, query)
    return p if as_query(query).evaluate(db.structure, ()) else 1 - p
