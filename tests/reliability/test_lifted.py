"""Tests for lifted (safe-plan) inference on hierarchical CQs."""

from fractions import Fraction

import pytest

from repro import obs
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.safety import classify_dichotomy
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.lifted import (
    UnsafeQueryError,
    is_uniform_half,
    lifted_probability,
    lifted_reliability,
    plan_probability,
    uniform_reliability,
)
from repro.util.errors import QueryError
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database


def cq(text):
    return ConjunctiveQuery.from_text(text)


def is_safe(query):
    return classify_dichotomy(query).safe


class TestSafetyTests:
    """The lifted engine's fragment is exactly the classifier's safe side."""

    def test_hierarchical_examples(self):
        assert is_safe(cq("exists x y. R(x) & S(x, y)"))
        assert is_safe(cq("exists x. R(x) & T(x)"))
        assert is_safe(cq("exists x y. S(x, y)"))

    def test_classic_non_hierarchical(self):
        # H0 = exists x y. R(x) & S(x, y) & T(y) — the hard pattern.
        verdict = classify_dichotomy(cq("exists x y. R(x) & S(x, y) & T(y)"))
        assert verdict.reason == "non_hierarchical"

    def test_self_join_detection(self):
        verdict = classify_dichotomy(cq("exists x y. R(x) & R(y)"))
        assert verdict.reason == "self_join"
        assert is_safe(cq("exists x y. R(x) & S(y)"))

    def test_is_safe_combines_both(self):
        assert is_safe(cq("exists x y. R(x) & S(x, y)"))
        assert not is_safe(cq("exists x y. R(x) & S(x, y) & T(y)"))
        assert not is_safe(cq("exists x y. R(x) & R(y)"))

    def test_duplicate_atom_is_not_a_self_join(self):
        # Identical atoms are deduplicated, not a true self-join.
        assert is_safe(cq("exists x. R(x) & R(x)"))


class TestLiftedProbability:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "text",
        [
            "exists x. R(x)",
            "exists x y. S(x, y)",
            "exists x y. R(x) & S(x, y)",
            "exists x. R(x) & T(x)",
            "exists x y. R(x) & S(x, y) & T(x)",
        ],
    )
    def test_agrees_with_exact_engine(self, seed, text):
        db = random_unreliable_database(
            make_rng(seed),
            size=3,
            relations={"R": 1, "S": 2, "T": 1},
            density=0.4,
            error_choices=["1/4", "1/3", "0"],
        )
        query = cq(text)
        lifted = lifted_probability(db, query)
        exact = truth_probability(db, query.to_formula(), method="worlds")
        assert lifted == exact, text

    def test_reliability_agrees(self):
        db = random_unreliable_database(
            make_rng(11),
            size=3,
            relations={"R": 1, "S": 2},
            density=0.5,
            error_choices=["1/5", "1/2"],
        )
        query = cq("exists x y. R(x) & S(x, y)")
        assert lifted_reliability(db, query) == reliability(
            db, query.to_formula()
        )

    def test_unsafe_query_raises(self):
        db = random_unreliable_database(
            make_rng(0), size=2, relations={"R": 1, "S": 2, "T": 1}
        )
        with pytest.raises(UnsafeQueryError):
            lifted_probability(db, cq("exists x y. R(x) & S(x, y) & T(y)"))

    def test_self_join_raises(self):
        db = random_unreliable_database(make_rng(0), size=2, relations={"R": 1})
        with pytest.raises(UnsafeQueryError):
            lifted_probability(db, cq("exists x y. R(x) & R(y)"))

    def test_equality_atom_raises(self):
        db = random_unreliable_database(make_rng(0), size=2, relations={"R": 1})
        with pytest.raises(UnsafeQueryError):
            lifted_probability(db, cq("exists x y. R(x) & x = y"))

    def test_non_boolean_rejected(self):
        db = random_unreliable_database(make_rng(0), size=2, relations={"R": 1})
        from repro.util.errors import QueryError

        query = ConjunctiveQuery.from_text("R(x)", head=("x",))
        with pytest.raises(QueryError):
            lifted_probability(db, query)

    def test_scales_past_grounded_world_enumeration(self):
        # 5 + 25 + 5 = 35 uncertain atoms, yet polynomial via the plan.
        db = random_unreliable_database(
            make_rng(7),
            size=5,
            relations={"R": 1, "S": 2, "T": 1},
            density=0.4,
            error="1/6",
        )
        assert len(db.uncertain_atoms()) == 35
        query = cq("exists x y. R(x) & S(x, y) & T(x)")
        value = lifted_probability(db, query)
        # Cross-check against the grounded-DNF engine (feasible here).
        exact = truth_probability(db, query.to_formula(), method="dnf")
        assert value == exact

    def test_walks_the_verdict_plan_once_per_node_visit(self):
        db = random_unreliable_database(
            make_rng(3),
            size=4,
            relations={"R": 1},
            error_choices=["1/4", "1/3"],
        )
        verdict = classify_dichotomy(cq("exists x. R(x)"))
        with obs.use(StatsRecorder(sink=ListSink())) as recorder:
            value = plan_probability(db, verdict)
            counters = recorder.summary()["counters"]
        # One project node, then its leaf once per domain element (no
        # nu is 0 or 1 here, so the early break never fires).
        assert counters["lifted.projections"] == 1
        assert counters["lifted.recursive_calls"] == 1 + 4
        assert value == lifted_probability(db, cq("exists x. R(x)"))

    def test_ground_atoms_factored(self, triangle_db):
        query = ConjunctiveQuery.from_text("exists x. E('a', 'b') & S(x)")
        lifted = lifted_probability(triangle_db, query)
        exact = truth_probability(
            triangle_db, query.to_formula(), method="worlds"
        )
        assert lifted == exact


def _plan_size(node):
    return 1 + sum(_plan_size(child) for child in node.children)


def uniform_db(seed, size, relations, density=0.5):
    """A database whose every atom is uncertain with mu = 1/2."""
    return random_unreliable_database(
        make_rng(seed), size=size, relations=relations, error="1/2"
    )


class TestUniformFastPath:
    """The Amarilli-Kimelfeld all-1/2 regime (uniform reliability)."""

    def test_is_uniform_half_detection(self):
        assert is_uniform_half(uniform_db(0, 3, {"R": 1, "S": 2}))
        assert not is_uniform_half(
            random_unreliable_database(
                make_rng(0), size=3, relations={"R": 1}, error="1/3"
            )
        )
        # One off-uniform entry breaks the regime.
        mixed = random_unreliable_database(
            make_rng(1),
            size=3,
            relations={"R": 1, "S": 2},
            error_choices=["1/2", "1/4"],
        )
        table = mixed.error_table()
        assert is_uniform_half(mixed) == all(
            value == Fraction(1, 2) for value in table.values()
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "text",
        [
            "exists x. R(x)",
            "exists x y. R(x) & S(x, y)",
            "exists x y. R(x) & S(x, y) & T(x)",
        ],
    )
    def test_fast_path_is_bit_identical_to_exact(self, seed, text):
        db = uniform_db(seed, 3, {"R": 1, "S": 2, "T": 1})
        query = cq(text)
        with obs.use(StatsRecorder(sink=ListSink())) as recorder:
            value = lifted_probability(db, query)
            counters = recorder.summary()["counters"]
        assert counters["lifted.uniform_fast_path"] == 1
        # The uniform rules visit each plan node once: no factor n.
        assert counters["lifted.recursive_calls"] == _plan_size(
            classify_dichotomy(query).plan
        )
        exact = truth_probability(db, query.to_formula(), method="dnf")
        assert isinstance(value, Fraction)
        assert value == exact

    def test_fast_path_scales_past_world_enumeration(self):
        # 6 + 36 + 6 = 48 uncertain all-1/2 atoms: worlds enumeration is
        # 2^48, yet the symbolic recursion answers instantly.
        db = uniform_db(9, 6, {"R": 1, "S": 2, "T": 1})
        assert len(db.uncertain_atoms()) == 48
        value = uniform_reliability(db, cq("exists x y. R(x) & S(x, y) & T(x)"))
        assert 0 < value < 1

    def test_constant_outside_universe_is_not_a_half(self):
        # Every atom of the space has mu = 1/2, but T('zz') names no
        # element: it never holds, as in world enumeration.
        db = uniform_db(0, 3, {"R": 1, "T": 1})
        assert is_uniform_half(db) and db.default_error == 0
        query = cq("exists x. R(x) & T('zz')")
        assert lifted_probability(db, query) == 0
        assert truth_probability(db, query.to_formula(), method="worlds") == 0

    def test_uniform_reliability_rejects_off_uniform_tables(self):
        db = random_unreliable_database(
            make_rng(0), size=2, relations={"R": 1}, error="1/3"
        )
        with pytest.raises(QueryError):
            uniform_reliability(db, cq("exists x. R(x)"))

    def test_uniform_entry_still_enforces_safety(self):
        db = uniform_db(0, 2, {"R": 1, "S": 2, "T": 1})
        with pytest.raises(UnsafeQueryError):
            uniform_reliability(db, cq("exists x y. R(x) & S(x, y) & T(y)"))


class TestVerdictOnError:
    def test_unsafe_error_carries_the_dichotomy_verdict(self):
        db = random_unreliable_database(
            make_rng(0), size=2, relations={"R": 1, "S": 2, "T": 1}
        )
        with pytest.raises(UnsafeQueryError) as exc_info:
            lifted_probability(db, cq("exists x y. R(x) & S(x, y) & T(y)"))
        verdict = exc_info.value.verdict
        assert verdict is not None
        assert verdict.reason == "non_hierarchical" and verdict.hard
        atoms_x, atoms_y = (set(s) for s in verdict.occurrences)
        assert atoms_x & atoms_y
        assert not (atoms_x <= atoms_y or atoms_y <= atoms_x)
