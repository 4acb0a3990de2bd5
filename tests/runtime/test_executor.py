"""The fallback executor: degradation order, budgets, provenance.

Includes the acceptance scenario for the resilient runtime: a database
whose exact enumeration is refused by preflight (> 2^20 worlds) still
answers within a 5-second deadline via a sampling engine, and the
attempt log names the degradation path.
"""

from fractions import Fraction

import pytest

from repro import obs
from repro.logic.evaluator import FOQuery
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink
from repro.reliability.exact import reliability
from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.runtime.executor import (
    DEFAULT_CHAIN,
    ENGINES,
    GUARANTEE_ORDER,
    RuntimeResult,
    run_with_fallback,
)
from repro.util.errors import (
    FallbackExhausted,
    QueryError,
    ResourceError,
)
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database

EXISTENTIAL = "exists x y. E(x, y) & S(y)"


class TestChainValidation:
    def test_default_chain_is_ordered_by_guarantee(self):
        assert DEFAULT_CHAIN == (
            "safe_lifted",
            "exact",
            "karp_luby",
            "montecarlo",
        )
        assert GUARANTEE_ORDER == ("exact", "relative", "additive")
        assert set(DEFAULT_CHAIN) == set(ENGINES)

    def test_empty_chain_rejected(self, triangle_db):
        with pytest.raises(ResourceError, match="empty"):
            run_with_fallback(triangle_db, EXISTENTIAL, chain=())

    def test_unknown_engine_rejected(self, triangle_db):
        with pytest.raises(ResourceError, match="warp_drive"):
            run_with_fallback(triangle_db, EXISTENTIAL, chain=("warp_drive",))
        # "lifted" folded into "safe_lifted" and is no longer a name.
        with pytest.raises(ResourceError, match=r"unknown engines \['lifted'\]"):
            run_with_fallback(triangle_db, EXISTENTIAL, chain=("lifted",))

    def test_unknown_quantity_rejected(self, triangle_db):
        with pytest.raises(QueryError, match="unknown quantity"):
            run_with_fallback(triangle_db, EXISTENTIAL, quantity="entropy")

    def test_probability_needs_boolean_query(self, triangle_db):
        with pytest.raises(QueryError, match="Boolean"):
            run_with_fallback(
                triangle_db,
                FOQuery("E(x, y)", ("x", "y")),
                quantity="probability",
            )


class TestHappyPath:
    def test_safe_query_routes_to_safe_lifted(self, triangle_db):
        # EXISTENTIAL is a safe (hierarchical, self-join-free) CQ: the
        # static router answers it on the dichotomy tier, never touching
        # enumeration or sampling.
        result = run_with_fallback(triangle_db, EXISTENTIAL)
        assert result.engine == "safe_lifted"
        assert result.guarantee == "exact"
        assert result.epsilon is None and result.delta is None
        assert isinstance(result.fraction, Fraction)
        assert result.fraction == reliability(triangle_db, EXISTENTIAL)
        assert float(result) == pytest.approx(float(result.fraction))
        assert [a.outcome for a in result.attempts] == ["ok"]

    def test_probability_quantity(self, triangle_db):
        result = run_with_fallback(
            triangle_db, EXISTENTIAL, quantity="probability"
        )
        assert result.quantity == "probability"
        assert result.guarantee == "exact"

    def test_kary_reliability(self, triangle_db):
        result = run_with_fallback(
            triangle_db, FOQuery("E(x, y) | S(x)", ("x", "y"))
        )
        assert result.engine == "exact"
        assert 0 <= result.value <= 1

    def test_describe_names_path_and_guarantee(self, triangle_db):
        result = run_with_fallback(triangle_db, EXISTENTIAL)
        text = result.describe()
        assert "safe_lifted: ok" in text
        assert "[exact]" in text
        assert "reliability =" in text


class TestDegradation:
    def test_cost_refusal_falls_through_to_sampler(self, triangle_db):
        # 4 uncertain atoms -> 16 worlds > 2^1: the dichotomy router
        # statically skips safe_lifted (not a CQ), exact is refused by
        # preflight, and a sampler answers with a weaker guarantee.
        result = run_with_fallback(
            triangle_db,
            "exists x y. E(x, y) & S(y) | exists x. S(x)",
            budget=Budget(max_atoms=1),
            epsilon=0.2,
            delta=0.2,
            rng=5,
        )
        assert result.engine in ("karp_luby", "montecarlo")
        assert result.guarantee == "additive"
        assert result.epsilon == 0.2
        path = [(a.engine, a.outcome) for a in result.attempts]
        assert path[0] == ("safe_lifted", "skipped_static")
        assert path[1] == ("exact", "cost_refused")
        assert path[-1][1] == "ok"

    def test_attempt_details_carry_error_messages(self, triangle_db):
        result = run_with_fallback(
            triangle_db,
            "exists x y. E(x, y) & S(y) | exists x. S(x)",
            budget=Budget(max_atoms=1),
            epsilon=0.2,
            delta=0.2,
            rng=5,
        )
        skipped = result.attempts[0]
        assert skipped.outcome == "skipped_static"
        assert "not_conjunctive" in skipped.detail
        refused = result.attempts[1]
        assert "worlds" in refused.detail
        assert result.attempts[-1].detail == ""

    def test_exhausted_when_no_engine_fits(self, triangle_db):
        # The lifted engine handles Boolean queries only; a k-ary query
        # on a safe_lifted-only chain is statically skipped, leaving
        # nothing to answer.
        with pytest.raises(FallbackExhausted) as exc_info:
            run_with_fallback(
                triangle_db,
                FOQuery("E(x, y)", ("x", "y")),
                chain=("safe_lifted",),
            )
        error = exc_info.value
        assert len(error.attempts) == 1
        assert error.attempts[0].outcome == "skipped_static"
        assert "safe_lifted: skipped_static" in str(error)

    def test_expired_deadline_exhausts_chain(self, triangle_db):
        # A clock that jumps far past the deadline right after start:
        # every attempt dies before its engine runs.
        ticks = iter([0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0])
        budget = Budget(deadline=1.0, clock=lambda: next(ticks))
        with pytest.raises(FallbackExhausted) as exc_info:
            run_with_fallback(
                triangle_db,
                EXISTENTIAL,
                chain=("exact", "montecarlo"),
                budget=budget,
            )
        outcomes = {a.outcome for a in exc_info.value.attempts}
        assert outcomes == {"budget_exceeded"}


class TestObservability:
    def test_counters_and_events(self, triangle_db):
        with obs.use(StatsRecorder(sink=ListSink())) as recorder:
            run_with_fallback(
                triangle_db,
                "exists x y. E(x, y) & S(y) | exists x. S(x)",
                budget=Budget(max_atoms=1),
                epsilon=0.2,
                delta=0.2,
                rng=5,
            )
            counters = recorder.summary()["counters"]
        assert counters["runtime.attempts"] >= 2
        assert counters["runtime.fallbacks"] >= 1
        assert counters["runtime.cost_refused"] == 1
        assert counters["runtime.skipped_static"] == 1
        assert counters["runtime.completed"] == 1
        assert counters["runtime.result.events"] == 1
        assert counters["runtime.fallback.events"] >= 1


class TestOneClassificationPerRequest:
    """A safe read classifies its query once: the router's verdict
    reaches ``safe_lifted``, which evaluates its plan directly."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.logic import safety
        from repro.reliability import lifted

        seen = []
        original = safety.classify_dichotomy

        def counting(query):
            seen.append(query)
            return original(query)

        monkeypatch.setattr(safety, "classify_dichotomy", counting)
        monkeypatch.setattr(lifted, "classify_dichotomy", counting)
        return seen

    @pytest.mark.parametrize("race", [False, True])
    def test_safe_read_classifies_once(self, triangle_db, calls, race):
        result = run_with_fallback(
            triangle_db, EXISTENTIAL, quantity="probability", race=race
        )
        assert result.engine == "safe_lifted"
        assert len(calls) == 1


class TestStaticSkipCounters:
    """A statically-skipped engine is not a *failure* (ISSUE 9 satellite).

    ``run_with_fallback`` must not count a dichotomy-router skip of the
    ``safe_lifted`` tier towards ``runtime.attempts``,
    ``runtime.fallbacks`` or ``runtime.fragment_mismatch``: the engine
    never ran, so breaker/fallback accounting stays exactly what it
    would be on a chain without the static tier.  The skip shows up only
    in its own counter, ``runtime.skipped_static``.
    """

    UNSAFE = "exists x y. E(x, y) & S(y) | exists x. S(x)"

    def _counters(self, db, chain):
        with obs.use(StatsRecorder(sink=ListSink())) as recorder:
            run_with_fallback(
                db,
                self.UNSAFE,
                chain=chain,
                epsilon=0.2,
                delta=0.2,
                rng=5,
            )
            return recorder.summary()["counters"]

    def test_skip_adds_no_attempts_or_fallbacks(self, triangle_db):
        with_tier = self._counters(triangle_db, DEFAULT_CHAIN)
        without_tier = self._counters(
            triangle_db, ("exact", "karp_luby", "montecarlo")
        )
        for key in (
            "runtime.attempts",
            "runtime.fallbacks",
            "runtime.completed",
        ):
            assert with_tier.get(key, 0) == without_tier.get(key, 0), key
        assert "runtime.fragment_mismatch" not in with_tier
        assert with_tier["runtime.skipped_static"] == 1
        assert "runtime.skipped_static" not in without_tier

    def test_skipped_attempt_recorded_with_zero_elapsed(self, triangle_db):
        result = run_with_fallback(
            triangle_db, self.UNSAFE, epsilon=0.2, delta=0.2, rng=5
        )
        skipped = result.attempts[0]
        assert skipped.engine == "safe_lifted"
        assert skipped.outcome == "skipped_static"
        assert skipped.elapsed == 0.0


@pytest.mark.slow
class TestAcceptanceScenario:
    """The ISSUE's demo: preflight refusal + deadline -> sampled answer."""

    @pytest.fixture
    def big_db(self):
        # 8 elements, E/2 and S/1, every atom uncertain: 72 uncertain
        # atoms -> 2^72 possible worlds, far over the 2^20 preflight bar.
        rng = make_rng(2026)
        db = random_unreliable_database(
            rng,
            8,
            {"E": 2, "S": 1},
            density=0.4,
            error=Fraction(1, 10),
            uncertain_fraction=1.0,
        )
        assert len(db.uncertain_atoms()) == 72
        return db

    # Non-conjunctive (disjunction of existentials) so the lifted
    # engine refuses too; still existential, so Karp-Luby applies.
    QUERY = "exists x y. E(x, y) & S(y) | exists x. S(x)"

    def test_refused_exact_degrades_to_sampler_within_deadline(self, big_db):
        result = run_with_fallback(
            big_db,
            self.QUERY,
            budget=Budget(deadline=5.0),
            epsilon=0.25,
            delta=0.25,
            rng=11,
        )
        assert result.elapsed < 5.0
        assert result.engine in ("karp_luby", "montecarlo")
        assert result.guarantee == "additive"
        path = [(a.engine, a.outcome) for a in result.attempts]
        assert path[0] == ("safe_lifted", "skipped_static")
        assert path[1] == ("exact", "cost_refused")
        assert path[-1][1] == "ok"
        assert 0.0 <= result.value <= 1.0

    def test_faulted_sampler_degrades_one_step_further(self, big_db):
        with faults.inject({"karp_luby": faults.TimeoutFault()}):
            result = run_with_fallback(
                big_db,
                self.QUERY,
                budget=Budget(deadline=5.0),
                epsilon=0.25,
                delta=0.25,
                rng=11,
            )
        assert result.engine == "montecarlo"
        assert result.guarantee == "additive"
        path = [(a.engine, a.outcome) for a in result.attempts]
        assert ("karp_luby", "budget_exceeded") in path
        assert path[-1] == ("montecarlo", "ok")


class TestRuntimeResult:
    def test_float_conversion(self):
        result = RuntimeResult(
            value=0.25,
            engine="montecarlo",
            guarantee="additive",
            quantity="reliability",
            epsilon=0.1,
            delta=0.1,
            attempts=(),
            elapsed=0.0,
        )
        assert float(result) == 0.25
        assert "epsilon=0.1" in result.describe()
