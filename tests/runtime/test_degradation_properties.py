"""Property test: degraded answers stay within their stated guarantee.

On small random databases (at most 10 uncertain atoms) the exact value
is cheap to compute directly; fault-inject both exact-guarantee engines
out of the chain and check that the sampling estimate the executor
falls back to lies within its stated additive epsilon of the truth.
The sampling guarantee is probabilistic (holds with probability
``1 - delta``), so seeds are fixed — the test is deterministic replay,
not a statistical assertion.
"""

from fractions import Fraction

import pytest

from repro.logic.evaluator import FOQuery
from repro.reliability.exact import reliability
from repro.runtime import faults
from repro.runtime.executor import run_with_fallback
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database

EPSILON = 0.15
DELTA = 0.1

QUERIES = [
    pytest.param(FOQuery("exists x y. E(x, y) & S(y)"), id="existential"),
    pytest.param(FOQuery("E(x, y) | S(x)", ("x", "y")), id="quantifier-free"),
]


def small_db(seed):
    """A random database with at most 10 uncertain atoms."""
    rng = make_rng(seed)
    db = random_unreliable_database(
        rng,
        3,
        {"E": 2, "S": 1},
        density=0.5,
        uncertain_fraction=0.8,
        error_choices=[Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)],
    )
    assert len(db.uncertain_atoms()) <= 10
    return db


@pytest.mark.slow
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_faulted_exact_estimate_within_stated_epsilon(seed, query):
    db = small_db(seed)
    truth = float(reliability(db, query))
    with faults.inject(
        {
            "safe_lifted": faults.TimeoutFault(),
            "exact": faults.TimeoutFault(),
        }
    ):
        result = run_with_fallback(
            db, query, epsilon=EPSILON, delta=DELTA, rng=seed + 1000
        )
    # Every exact-tier engine was faulted out (or statically skipped),
    # so this is a sampled answer with an additive guarantee...
    assert result.engine in ("karp_luby", "montecarlo")
    assert result.guarantee == "additive"
    assert result.epsilon == EPSILON
    exact_tier = [
        a
        for a in result.attempts
        if a.engine in ("safe_lifted", "exact")
    ]
    assert all(
        a.outcome in ("budget_exceeded", "skipped_static") for a in exact_tier
    )
    assert any(a.outcome == "budget_exceeded" for a in exact_tier)
    # ...and the estimate honours the epsilon it claims.
    assert abs(result.value - truth) <= EPSILON


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_montecarlo_only_chain_also_within_epsilon(seed):
    """Force the weakest engine alone: the bound must still hold."""
    db = small_db(seed)
    query = FOQuery("exists x. E(x, x) | S(x)")
    truth = float(reliability(db, query))
    result = run_with_fallback(
        db,
        query,
        chain=("montecarlo",),
        epsilon=EPSILON,
        delta=DELTA,
        rng=seed + 2000,
    )
    assert result.engine == "montecarlo"
    assert result.guarantee == "additive"
    assert abs(result.value - truth) <= EPSILON
