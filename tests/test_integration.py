"""End-to-end integration: the full audit workflow across subsystems.

Walks the complete story a user of the library lives through —
calibrate an error model from audits, analyze a query, rank fragile
facts, plan verifications, condition on their outcomes — asserting
cross-module consistency at each step.
"""

from fractions import Fraction

import pytest

from repro import (
    Atom,
    FOQuery,
    StructureBuilder,
    UnreliableDatabase,
    analyze,
    most_fragile_atoms,
    reliability,
    truth_probability,
)
from repro.logic.algebra import rel
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.safety import classify_dichotomy
from repro.reliability.answers import (
    answer_probabilities,
    most_questionable_answers,
    reliability_from_answers,
)
from repro.reliability.calibration import AuditRecord, calibrated_database
from repro.reliability.lifted import lifted_probability
from repro.reliability.repair import (
    greedy_verification_plan,
    verify_and_correct,
)
from repro.util.rng import make_rng


@pytest.fixture
def raw_structure():
    builder = StructureBuilder(["s1", "s2", "s3", "p1", "p2"])
    builder.relation("Supplies", 2).relation("Audited", 1)
    builder.add("Supplies", ("s1", "p1"))
    builder.add("Supplies", ("s2", "p1")).add("Supplies", ("s2", "p2"))
    builder.add("Audited", ("s1",)).add("Audited", ("s2",))
    return builder.build()


@pytest.fixture
def query():
    return FOQuery("exists s p. Audited(s) & Supplies(s, p)")


class TestFullWorkflow:
    def test_calibrate_analyze_plan_condition(self, raw_structure, query):
        # 1. Calibrate mu from an audit sample.
        audits = [
            AuditRecord(Atom("Supplies", ("s1", "p1")), True),
            AuditRecord(Atom("Supplies", ("s3", "p2")), False),
            AuditRecord(Atom("Audited", ("s3",)), False),
        ]
        db = calibrated_database(
            raw_structure, audits, default_rate=Fraction(1, 10)
        )
        # Audited atoms are pinned; the rest carry smoothed rates.
        assert db.mu(Atom("Supplies", ("s1", "p1"))) == 0
        assert 0 < db.mu(Atom("Supplies", ("s2", "p1"))) < 1

        # 2. Analyze dispatches and the value agrees with reliability().
        report = analyze(db, query)
        assert report.is_exact
        assert report.exact == reliability(db, query)

        # 3. The probabilistic answer table folds back to the same value.
        table = answer_probabilities(db, query)
        assert reliability_from_answers(db, query, table) == report.exact

        # 4. Influence ranking and verification planning are consistent:
        #    every planned atom must be a relevant uncertain atom.
        fragile = most_fragile_atoms(db, query.formula)
        plan = greedy_verification_plan(db, query, budget=2)
        uncertain = set(db.uncertain_atoms())
        assert all(atom in uncertain for atom, _score in fragile)
        assert all(atom in uncertain for atom, _gain in plan)

        # 5. Conditioning on a verified outcome changes the value the
        #    way Bayes says it should.
        if plan:
            atom, _gain = plan[0]
            nu = db.nu(atom)
            after = nu * truth_probability(
                verify_and_correct(db, atom, True), query
            ) + (1 - nu) * truth_probability(
                verify_and_correct(db, atom, False), query
            )
            assert after == truth_probability(db, query)

    def test_algebra_lifted_exact_triangle(self, raw_structure):
        db = UnreliableDatabase(
            raw_structure,
            {
                Atom("Supplies", ("s2", "p2")): Fraction(1, 3),
                Atom("Audited", ("s2",)): Fraction(1, 4),
                Atom("Audited", ("s1",)): Fraction(1, 5),
            },
        )
        # The same query through three front doors:
        expression = (
            rel("Audited", "s").join(rel("Supplies", "s", "p")).project("p")
        )
        cq = ConjunctiveQuery.from_text(
            "exists s p. Audited(s) & Supplies(s, p)"
        )
        fo = FOQuery("exists s p. Audited(s) & Supplies(s, p)")

        assert classify_dichotomy(cq).safe
        lifted = lifted_probability(db, cq)
        grounded = truth_probability(db, fo, method="dnf")
        enumerated = truth_probability(db, fo, method="worlds")
        assert lifted == grounded == enumerated

        # The algebra expression answers identically on the observed db.
        assert bool(expression.rows(db.structure)) == fo.evaluate(
            db.structure, ()
        )

    def test_estimators_agree_with_exact_on_workflow_db(
        self, raw_structure, query
    ):
        db = UnreliableDatabase(
            raw_structure,
            {atom: Fraction(1, 6) for atom in raw_structure.atoms()},
        )
        exact = float(reliability(db, query))
        from repro.reliability.approx import reliability_additive
        from repro.reliability.padding import padded_reliability

        additive = reliability_additive(db, query, 0.05, 0.05, make_rng(1))
        padded = padded_reliability(db, query, 0.1, 0.1, make_rng(2))
        assert abs(additive.value - exact) <= 0.05
        assert abs(padded.value - exact) <= 0.1
