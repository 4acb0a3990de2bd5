#!/usr/bin/env python
"""Beyond the reliability number: which facts should we re-check first?

Reliability (the paper's headline quantity) says *how much* to trust an
answer; influence analysis says *why* and *what to do about it*.  This
example builds a supplier/shipment database with uncertain facts, asks a
conjunctive availability query, and then:

1. ranks the uncertain atoms by their share of the answer's fragility
   (Birnbaum importance weighted by atom variance);
2. simulates re-verifying the top-ranked fact (setting its error to 0)
   and measures how much the reliability actually improves;
3. contrasts with re-verifying a low-influence fact — barely any gain.

Also shown: the lifted (safe-plan) engine computing exact probabilities
in polynomial time for the hierarchical query, and the relational
algebra front-end compiling to the same query.

Run:  python examples/influence_analysis.py
"""

import logging
import random
from fractions import Fraction

from repro import (
    Atom,
    StructureBuilder,
    UnreliableDatabase,
    atom_influence,
    most_fragile_atoms,
    reliability,
)
from repro.logic.algebra import rel
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.safety import classify_dichotomy
from repro.reliability.lifted import lifted_probability


def main() -> None:
    suppliers = ["acme", "blue", "core"]
    parts = ["bolt", "gear"]
    builder = StructureBuilder(suppliers + parts)
    builder.relation("Supplies", 2)   # supplier supplies part
    builder.relation("Audited", 1)    # supplier passed the audit
    builder.add("Supplies", ("acme", "bolt"))
    builder.add("Supplies", ("blue", "bolt"))
    builder.add("Supplies", ("blue", "gear"))
    builder.add("Audited", ("acme",))
    builder.add("Audited", ("blue",))
    observed = builder.build()

    mu = {
        Atom("Supplies", ("acme", "bolt")): Fraction(1, 5),
        Atom("Supplies", ("blue", "bolt")): Fraction(1, 3),
        Atom("Supplies", ("blue", "gear")): Fraction(1, 4),
        Atom("Audited", ("acme",)): Fraction(1, 10),
        Atom("Audited", ("blue",)): Fraction(1, 2),
        Atom("Audited", ("core",)): Fraction(1, 8),
    }
    db = UnreliableDatabase(observed, mu)

    # The query, written in relational algebra and compiled to FO:
    expression = (
        rel("Audited", "s").join(rel("Supplies", "s", "p")).project("p")
    )
    availability = ConjunctiveQuery.from_text(
        "exists s p. Audited(s) & Supplies(s, p)"
    )
    print("query: some audited supplier supplies something")
    print(f"  algebra form: {expression!r}")
    print(f"  safe (hierarchical, no self-joins): {classify_dichotomy(availability).safe}")
    print(f"  lifted P[holds] = {float(lifted_probability(db, availability)):.4f}")

    base = reliability(db, availability.to_formula())
    print(f"  reliability: {float(base):.4f}")
    print()

    # Influence ranking.
    print("fragility ranking (influence x atom variance):")
    ranking = most_fragile_atoms(db, availability.to_formula(), limit=6)
    for atom, score in ranking:
        print(f"  {str(atom):<30} score {float(score):.4f}")
    print()

    # Re-verify the most fragile fact vs a marginal one.
    top_atom = ranking[0][0]
    bottom_atom = ranking[-1][0]
    for label, atom in (("most", top_atom), ("least", bottom_atom)):
        fixed = db.with_errors({atom: 0})
        improved = reliability(fixed, availability.to_formula())
        print(
            f"re-verifying the {label}-fragile fact {atom}: "
            f"R {float(base):.4f} -> {float(improved):.4f} "
            f"(gain {float(improved - base):+.4f})"
        )
    print()
    print(
        "takeaway: the influence ranking turns a reliability score into "
        "a prioritised re-verification worklist."
    )


if __name__ == "__main__":
    # Engine failures are logged, not swallowed: a configured handler
    # makes the failing example attributable in scripted runs.
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        main()
    except Exception:
        logging.getLogger("repro.examples.influence_analysis").exception(
            "influence_analysis example failed"
        )
        raise SystemExit(1)
