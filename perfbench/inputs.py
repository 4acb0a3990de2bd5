"""Workload inputs and their reference answers.

Databases come from a fixed family of shapes: shape ``i`` of a given
universe size and edge count always has the same edges, and the seed
draws every atom's error probability.  A run mixes several shapes, and
every seed's run mixes the same ones, so a request costs about the
same from seed to seed and a run's medians measure the program rather
than the draw.

Reference answers come from a path independent of the engine that
answers the request:

* safe conjunctive queries (answered by lifted inference): grounded
  DNF with Shannon expansion, ``truth_probability(method="dnf")``;
* small unsafe queries (answered by the exact engine, which itself
  takes the DNF route): a reduced ordered BDD, ``DeltaSession``;
* Karp–Luby answers: ``method="dnf"`` on the database conditioned on
  the one perturbed atom, combined linearly (the probability of any
  query is affine in the probability of a single independent atom);
* Monte-Carlo answers to ``forall x. exists y. F(x, y)``: the closed
  form ``prod_x (1 - prod_y (1 - nu(F(x, y))))``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from repro import Atom, FOQuery, StructureBuilder, UnreliableDatabase
from repro.delta.session import DeltaSession
from repro.reliability.exact import truth_probability

#: Error probabilities drawn for every uncertain atom.
CHOICES = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
#: Error probabilities of the absent-but-uncertain ``F`` atoms.
F_CHOICES = (Fraction(1, 10), Fraction(3, 20), Fraction(1, 5))

#: Hierarchical, self-join-free: statically safe (Dalvi–Suciu).
SAFE = (
    "exists x y. R(x) & E(x, y)",
    "exists x y. E(x, y) & T(y)",
)
#: Non-hierarchical (H0) and self-join: #P-hard in general.
UNSAFE = (
    "exists x y. R(x) & E(x, y) & T(y)",
    "exists x y. S(x) & E(x, y) & S(y)",
)
#: Alternating quantifiers: neither existential nor universal, so only
#: Monte-Carlo world sampling applies.
FO = "forall x. exists y. F(x, y)"

RELATIONS = (("E", 2), ("F", 2), ("R", 1), ("S", 1), ("T", 1))


def build_db(
    rng: random.Random, n: int, edges: int, shape: int, f_atoms: bool = False
) -> UnreliableDatabase:
    """Shape ``shape`` of its family, with errors drawn from ``rng``.

    ``E`` holds ``edges`` distinct off-diagonal pairs, the same ones for
    every seed; ``R``, ``S`` and ``T`` hold every element; every
    present tuple is uncertain.  With ``f_atoms`` every ``F`` pair is
    absent but uncertain.
    """
    builder = StructureBuilder(list(range(n)))
    for name, arity in RELATIONS:
        builder.relation(name, arity)
    mu: Dict[Atom, Fraction] = {}
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    family = random.Random(f"shape:{n}:{edges}:{shape}")
    for pair in sorted(family.sample(pairs, edges)):
        builder.add("E", pair)
        mu[Atom("E", pair)] = rng.choice(CHOICES)
    for name in ("R", "S", "T"):
        for x in range(n):
            builder.add(name, (x,))
            mu[Atom(name, (x,))] = rng.choice(CHOICES)
    if f_atoms:
        for x in range(n):
            for y in range(n):
                mu[Atom("F", (x, y))] = rng.choice(F_CHOICES)
    return UnreliableDatabase(builder.build(), mu)


def dnf_reference(db: UnreliableDatabase, text: str) -> Fraction:
    return truth_probability(db, FOQuery(text), method="dnf")


def bdd_reference(db: UnreliableDatabase, text: str) -> Fraction:
    return DeltaSession(db, FOQuery(text)).probability()


def fo_reference(db: UnreliableDatabase) -> Fraction:
    """``Pr[forall x. exists y. F(x, y)]``: rows of ``F`` are independent."""
    universe = db.structure.universe
    total = Fraction(1)
    for x in universe:
        none = Fraction(1)
        for y in universe:
            none *= 1 - db.nu(Atom("F", (x, y)))
        total *= 1 - none
    return total


def perturbed(
    db: UnreliableDatabase, atom: Atom, count: int
) -> List[Tuple[UnreliableDatabase, Fraction]]:
    """``count`` copies of ``db``, each with its own error on ``atom``.

    Every copy has a distinct fingerprint, so no request hits the
    compilation cache; the shift is at most ``count / 2000``, so the
    sampling work stays in the base database's mode.  Returns each
    copy with its ``nu(atom)``.
    """
    base = db.mu(atom)
    out = []
    for j in range(count):
        copy = db.with_errors({atom: base + Fraction(j + 1, 2000)})
        out.append((copy, copy.nu(atom)))
    return out


def affine_reference(
    db: UnreliableDatabase, text: str, atom: Atom
) -> Tuple[Fraction, Fraction]:
    """``(P | atom true, P | atom false)`` by the DNF route.

    For a copy with ``nu(atom) = v`` the answer is
    ``v * high + (1 - v) * low``.
    """
    high = dnf_reference(db.given({atom: True}), text)
    low = dnf_reference(db.given({atom: False}), text)
    return high, low


def derived_seeds(rng: random.Random, count: int) -> Sequence[int]:
    return [rng.getrandbits(32) for _ in range(count)]
