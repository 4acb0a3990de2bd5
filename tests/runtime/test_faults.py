"""Fault injection: every fault type drives a real degradation path.

The ISSUE's contract: for each injected fault type there is a test
asserting (a) the fallback counter in :mod:`repro.obs` incremented and
(b) the final result's guarantee metadata is correct.
"""

import pytest

from repro import obs
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink
from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.runtime.executor import DEFAULT_CHAIN, ENGINES, run_with_fallback
from repro.util.errors import (
    FallbackExhausted,
    ProbabilityError,
    QueryError,
    ResourceError,
)

EXISTENTIAL = "exists x y. E(x, y) & S(y)"


@pytest.fixture
def recorder():
    with obs.use(StatsRecorder(sink=ListSink())) as active:
        yield active


def counters(recorder):
    return recorder.summary()["counters"]


class TestTimeoutFault:
    def test_degrades_and_counts(self, triangle_db, recorder):
        with faults.inject({"safe_lifted": faults.TimeoutFault()}):
            result = run_with_fallback(triangle_db, EXISTENTIAL)
        stats = counters(recorder)
        assert stats["runtime.fallbacks"] == 1
        assert stats["runtime.budget_exceeded"] == 1
        assert stats["runtime.faults_injected"] == 1
        # safe_lifted timed out; exact (also exact-guarantee) answers.
        assert result.engine == "exact"
        assert result.guarantee == "exact"
        assert result.epsilon is None and result.delta is None
        assert result.attempts[0].outcome == "budget_exceeded"
        assert "injected timeout" in result.attempts[0].detail

    def test_both_exact_engines_out_leaves_sampler(self, triangle_db, recorder):
        fault = faults.TimeoutFault()
        with faults.inject({"safe_lifted": fault, "exact": fault}):
            result = run_with_fallback(
                triangle_db, EXISTENTIAL, epsilon=0.2, delta=0.2, rng=3
            )
        stats = counters(recorder)
        assert stats["runtime.fallbacks"] == 2
        assert stats["runtime.faults_injected"] == 2
        assert result.engine in ("karp_luby", "montecarlo")
        assert result.guarantee == "additive"
        assert result.epsilon == 0.2 and result.delta == 0.2


class TestExceptionFault:
    def test_default_error_is_fragment_mismatch(self, triangle_db, recorder):
        with faults.inject({"safe_lifted": faults.ExceptionFault()}):
            result = run_with_fallback(triangle_db, EXISTENTIAL)
        stats = counters(recorder)
        assert stats["runtime.fallbacks"] == 1
        assert stats["runtime.fragment_mismatch"] == 1
        assert result.engine == "exact"
        assert result.guarantee == "exact"
        assert result.attempts[0].outcome == "fragment_mismatch"
        assert "injected engine failure" in result.attempts[0].detail

    def test_custom_error_propagates_when_not_catchable(self, triangle_db):
        # Only CostRefused/BudgetExceeded/QueryError trigger fallback;
        # anything else is a genuine bug and must escape unchanged.
        with faults.inject(
            {"safe_lifted": faults.ExceptionFault(error=ValueError("boom"))}
        ):
            with pytest.raises(ValueError, match="boom"):
                run_with_fallback(triangle_db, EXISTENTIAL)

    def test_custom_query_error(self, triangle_db, recorder):
        fault = faults.ExceptionFault(error=QueryError("nope"))
        with faults.inject({"safe_lifted": fault}):
            result = run_with_fallback(
                triangle_db, EXISTENTIAL, chain=("safe_lifted", "montecarlo"),
                epsilon=0.2, delta=0.2, rng=1,
            )
        assert counters(recorder)["runtime.fallbacks"] == 1
        assert result.engine == "montecarlo"
        assert result.guarantee == "additive"


class TestSlowdownFault:
    def test_stall_blows_slice_and_degrades(self, triangle_db, recorder):
        # Fair-share slicing gives exact half the 0.2s deadline; the
        # 0.12s stall blows that slice (checkpoint right after the
        # stall), while the remaining ~0.08s is plenty for safe_lifted.
        with faults.inject({"exact": faults.SlowdownFault(seconds=0.12)}):
            result = run_with_fallback(
                triangle_db,
                EXISTENTIAL,
                chain=("exact", "safe_lifted"),
                budget=Budget(deadline=0.2),
            )
        stats = counters(recorder)
        assert stats["runtime.fallbacks"] == 1
        assert stats["runtime.budget_exceeded"] == 1
        assert stats["runtime.faults_injected"] == 1
        assert result.engine == "safe_lifted"
        assert result.guarantee == "exact"
        assert result.attempts[0].outcome == "budget_exceeded"

    def test_without_deadline_engine_still_answers(self, triangle_db, recorder):
        with faults.inject({"safe_lifted": faults.SlowdownFault(seconds=0.01)}):
            result = run_with_fallback(triangle_db, EXISTENTIAL)
        stats = counters(recorder)
        assert stats["runtime.faults_injected"] == 1
        assert "runtime.fallbacks" not in stats
        assert result.engine == "safe_lifted"
        assert result.guarantee == "exact"

    def test_negative_seconds_rejected(self):
        with pytest.raises(ResourceError):
            faults.SlowdownFault(seconds=-1.0)


class TestDeterminism:
    def test_probability_zero_never_fires(self, triangle_db, recorder):
        fault = faults.TimeoutFault(probability=0.0)
        with faults.inject({"safe_lifted": fault}, rng=9):
            result = run_with_fallback(triangle_db, EXISTENTIAL)
        assert result.engine == "safe_lifted"
        assert "runtime.faults_injected" not in counters(recorder)

    def test_same_seed_same_firing_pattern(self, triangle_db):
        def run_once(seed):
            fault = faults.TimeoutFault(probability=0.5)
            engines = []
            with faults.inject({"safe_lifted": fault}, rng=seed):
                for _ in range(4):
                    engines.append(
                        run_with_fallback(triangle_db, EXISTENTIAL).engine
                    )
            return engines

        assert run_once(42) == run_once(42)

    def test_probability_outside_unit_interval_rejected(self):
        with pytest.raises(ProbabilityError):
            faults.TimeoutFault(probability=1.5)


class TestInjectContextManager:
    def test_registry_restored_on_exit(self, triangle_db):
        original = dict(ENGINES)
        with faults.inject({"exact": faults.TimeoutFault()}):
            assert ENGINES["exact"] is not original["exact"]
        assert ENGINES == original

    def test_registry_restored_on_error(self):
        original = dict(ENGINES)
        with pytest.raises(RuntimeError):
            with faults.inject({"exact": faults.TimeoutFault()}):
                raise RuntimeError("boom")
        assert ENGINES == original

    def test_unknown_engine_rejected(self):
        with pytest.raises(ResourceError, match="unknown engines"):
            with faults.inject({"warp_drive": faults.TimeoutFault()}):
                pass

    def test_non_fault_value_rejected(self):
        with pytest.raises(ResourceError, match="must be a Fault"):
            with faults.inject({"exact": "not a fault"}):
                pass

    def test_all_engines_faulted_exhausts_chain(self, triangle_db, recorder):
        fault = faults.TimeoutFault()
        with faults.inject({name: fault for name in ENGINES}):
            with pytest.raises(FallbackExhausted):
                run_with_fallback(triangle_db, EXISTENTIAL)
        stats = counters(recorder)
        # Fallbacks are per chain attempt; the default chain is the
        # unit, not the full engine registry.
        assert stats["runtime.fallbacks"] == len(DEFAULT_CHAIN)
        assert stats["runtime.exhausted"] == 1
