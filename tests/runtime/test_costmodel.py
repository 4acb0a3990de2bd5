"""Cost-model unit tests: features, fitting, persistence, fallback.

The regression class pins the satellite contract: a stale, corrupt, or
partial calibration file degrades to closed-form predictions with a
``costmodel.fallback`` counter — it never crashes ``run`` or
``analyze``.
"""

import json
import math
import random

import pytest

from repro import obs
from repro.logic.evaluator import FOQuery
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink
from repro.reliability.report import analyze
from repro.runtime import costmodel
from repro.runtime.budget import Budget
from repro.runtime.costmodel import (
    CALIBRATION_VERSION,
    FEATURE_NAMES,
    CostModel,
    CostObservation,
    EngineCalibration,
    engine_guarantee,
    fit,
    fit_from_trace,
    load_calibration,
    load_or_fallback,
    plan_chain,
    plan_features,
    static_cost,
)
from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
from repro.util.errors import CalibrationError
from repro.workloads.random_db import random_unreliable_database

EXISTENTIAL = "exists x. exists y. E(x, y) & S(y)"


def small_db(seed=7, size=4):
    return random_unreliable_database(
        random.Random(seed), size=size, relations={"E": 2, "S": 1}, density=0.4
    )


def fitted_model(scale=1.0):
    """A deterministic synthetic fit: engine i costs scale * i seconds."""
    observations = []
    base = {name: 1.0 for name in FEATURE_NAMES}
    for rank, engine in enumerate(DEFAULT_CHAIN, start=1):
        for jitter in (0.9, 1.0, 1.1, 1.2):
            features = dict(base, atoms=jitter * 3)
            observations.append(
                CostObservation(engine, scale * rank * jitter, features)
            )
    return fit(observations)


class TestPlanFeatures:
    def test_features_are_finite_floats(self):
        db = small_db()
        features = plan_features(db, FOQuery(EXISTENTIAL))
        assert set(features) == set(FEATURE_NAMES)
        for value in features.values():
            assert isinstance(value, float) and math.isfinite(value)

    def test_nonexistential_query_gets_zero_clauses(self):
        db = small_db()
        features = plan_features(db, FOQuery("forall x. exists y. E(x, y)"))
        # forall-exists prefix: outside the Theorem 5.4 grounding fragment.
        assert features["clauses"] == 0.0

    def test_kary_query_prices_cells(self):
        db = small_db(size=5)
        features = plan_features(db, FOQuery("exists y. E(x, y)", ["x"]))
        assert features["cells"] == 5.0

    def test_features_never_raise_on_opaque_queries(self):
        db = small_db()

        class Opaque:
            arity = 0

            def evaluate(self, structure, args):
                return True

            def answers(self, structure):
                return {()}

        features = plan_features(db, Opaque())
        assert features["clauses"] == 0.0


class TestGuaranteeTiers:
    def test_karp_luby_tier_depends_on_quantity(self):
        assert engine_guarantee("karp_luby", "probability") == "relative"
        assert engine_guarantee("karp_luby", "reliability") == "additive"

    def test_exact_engines_share_the_exact_tier(self):
        assert engine_guarantee("exact") == "exact"
        assert engine_guarantee("safe_lifted") == "exact"
        assert engine_guarantee("montecarlo") == "additive"


class TestFit:
    def test_fit_orders_engines_by_observed_cost(self):
        model = fitted_model()
        features = {name: 1.0 for name in FEATURE_NAMES}
        predictions = [
            model.predict_seconds(engine, features) for engine in DEFAULT_CHAIN
        ]
        assert predictions == sorted(predictions)

    def test_underobserved_engine_stays_uncalibrated(self):
        features = {name: 1.0 for name in FEATURE_NAMES}
        model = fit([CostObservation("exact", 0.5, features)])
        assert not model.calibrated("exact")
        # Closed-form fallback still predicts something sortable.
        assert math.isfinite(model.predict_seconds("exact", features))

    def test_fit_from_trace_uses_only_ok_attempts(self):
        features = {name: 2.0 for name in FEATURE_NAMES}
        records = []
        for seconds in (0.1, 0.2, 0.3, 0.4):
            records.append(
                {
                    "type": "event",
                    "name": "runtime.attempt.cost",
                    "fields": dict(
                        features, engine="montecarlo", outcome="ok",
                        seconds=seconds,
                    ),
                }
            )
        # Refused attempts must not train the model.
        for _ in range(10):
            records.append(
                {
                    "type": "event",
                    "name": "runtime.attempt.cost",
                    "fields": dict(
                        features, engine="exact", outcome="cost_refused",
                        seconds=1e-6,
                    ),
                }
            )
        model = fit_from_trace(records)
        assert model.calibrated("montecarlo")
        assert not model.calibrated("exact")

    def test_executor_emits_trainable_cost_events(self):
        db = small_db()
        sink = ListSink()
        with obs.use(StatsRecorder(sink=sink)):
            run_with_fallback(db, EXISTENTIAL, rng=3)
        events = sink.by_name("runtime.attempt.cost")
        assert events, "executor should trace attempt costs when recording"
        fields = events[-1]["fields"]
        assert fields["outcome"] == "ok"
        assert set(FEATURE_NAMES) <= set(fields)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = fitted_model()
        path = tmp_path / "calibration.json"
        model.save(path)
        loaded = load_calibration(path)
        assert set(loaded.engines) == set(model.engines)
        features = {name: 3.0 for name in FEATURE_NAMES}
        for engine in model.engines:
            assert loaded.predict_seconds(engine, features) == pytest.approx(
                model.predict_seconds(engine, features)
            )

    def test_missing_file_raises_calibration_error(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_calibration(tmp_path / "absent.json")

    def test_stale_version_raises_calibration_error(self, tmp_path):
        path = tmp_path / "stale.json"
        payload = fitted_model().to_payload()
        payload["version"] = CALIBRATION_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="stale"):
            load_calibration(path)

    def test_retired_lifted_entry_loads_and_orders_nothing(self, tmp_path):
        # Calibrations fitted before the lifted engine folded into
        # safe_lifted still carry a "lifted" entry; it loads, but no
        # chain can name it, so DEFAULT_CHAIN orders as before.
        payload = fitted_model().to_payload()
        cheapest = [-50.0] + [0.0] * len(FEATURE_NAMES)
        payload["engines"]["lifted"] = {
            "weights": cheapest, "observations": 4, "rmse": 0.0,
        }
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(payload))
        model = load_calibration(path)
        assert model.calibrated("lifted")
        features = {name: 1.0 for name in FEATURE_NAMES}
        assert model.order_chain(DEFAULT_CHAIN, features) == DEFAULT_CHAIN
        result = run_with_fallback(small_db(), EXISTENTIAL, cost_model=path)
        assert result.engine == "safe_lifted"
        assert "lifted" not in {a.engine for a in result.attempts}


class TestCalibrationFallback:
    """Satellite: corrupt calibration degrades, counts, never crashes."""

    def _counter(self, recorder, name):
        return recorder.summary().get("counters", {}).get(name, 0)

    def test_corrupt_json_falls_back_and_counts(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json at all")
        with obs.use(StatsRecorder()) as recorder:
            model = load_or_fallback(path)
        assert model.engines == {}
        assert self._counter(recorder, "costmodel.fallback") == 1

    def test_partial_file_keeps_valid_engines(self, tmp_path):
        payload = fitted_model().to_payload()
        payload["engines"]["exact"]["weights"] = ["oops"]
        payload["engines"]["safe_lifted"]["weights"] = [float("nan")] * (
            len(FEATURE_NAMES) + 1
        )
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with obs.use(StatsRecorder()) as recorder:
            model = load_or_fallback(path)
        assert not model.calibrated("exact")
        assert not model.calibrated("safe_lifted")
        assert model.calibrated("karp_luby")
        assert model.calibrated("montecarlo")
        assert self._counter(recorder, "costmodel.fallback") == 2

    @pytest.mark.parametrize(
        "content",
        ["", "[1, 2, 3]", '{"version": 999}', '{"version": 1, "engines": 3}'],
    )
    def test_run_and_analyze_never_crash_on_bad_calibration(
        self, tmp_path, content
    ):
        path = tmp_path / "bad.json"
        path.write_text(content)
        db = small_db()
        result = run_with_fallback(db, EXISTENTIAL, rng=1, cost_model=path)
        assert 0.0 <= result.value <= 1.0
        report = analyze(db, FOQuery(EXISTENTIAL), cost_model=path)
        assert report.recommended_engine == result.engine

    def test_bad_calibration_preserves_guarantee_tiers(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("corrupt")
        db = random_unreliable_database(
            random.Random(0),
            size=6,
            relations={"E": 2, "S": 1},
            density=0.8,
        )
        assert len(db.uncertain_atoms()) > 20  # exact must be refused
        result = run_with_fallback(db, EXISTENTIAL, rng=1, cost_model=path)
        # The cold model predicts from the closed forms, which may swap
        # engines *within* a tier (safe_lifted's polynomial beats exact's
        # 2^atoms) but never across tiers: every exact-tier attempt must
        # precede every approximate attempt.
        tiers = [
            engine_guarantee(a.engine, "reliability") for a in result.attempts
        ]
        first_approx = next(
            (i for i, tier in enumerate(tiers) if tier != "exact"), len(tiers)
        )
        assert all(tier == "exact" for tier in tiers[:first_approx])
        assert all(tier != "exact" for tier in tiers[first_approx:])


class TestOrderChain:
    def test_no_model_means_no_reordering(self):
        db = small_db()
        sink = ListSink()
        with obs.use(StatsRecorder(sink=sink)):
            result = run_with_fallback(db, EXISTENTIAL, rng=2)
        assert tuple(a.engine for a in result.attempts)[0] == "safe_lifted"

    def test_order_chain_respects_tiers_with_adversarial_weights(self):
        width = len(FEATURE_NAMES) + 1
        engines = {
            "exact": EngineCalibration((float("inf"),) * width, 9, 0.0),
            "montecarlo": EngineCalibration((-1e300,) * width, 9, 0.0),
        }
        model = CostModel(engines)
        features = {name: 1.0 for name in FEATURE_NAMES}
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        tiers = [engine_guarantee(name, "reliability") for name in ordered]
        assert tiers == ["exact", "exact", "additive", "additive"]
        assert sorted(ordered) == sorted(DEFAULT_CHAIN)

    def test_calibrated_model_reorders_within_additive_tier(self):
        # montecarlo observed much cheaper than karp_luby: it must move
        # ahead of karp_luby, but never ahead of the exact tier.
        observations = []
        features = {name: 1.0 for name in FEATURE_NAMES}
        for seconds, engine in ((0.001, "montecarlo"), (1.0, "karp_luby")):
            for jitter in (0.9, 1.0, 1.1):
                observations.append(
                    CostObservation(engine, seconds * jitter, features)
                )
        model = fit(observations)
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        assert ordered == ("safe_lifted", "exact", "montecarlo", "karp_luby")
        # On probabilities Karp-Luby is *relative*: a stronger tier than
        # montecarlo's additive, so the swap is forbidden.
        ordered = model.order_chain(DEFAULT_CHAIN, features, "probability")
        assert ordered == DEFAULT_CHAIN

    def test_executor_uses_calibrated_order(self):
        db = small_db()
        model = fitted_model()
        features = plan_features(db, FOQuery(EXISTENTIAL))
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        result = run_with_fallback(db, EXISTENTIAL, rng=5, cost_model=model)
        assert tuple(a.engine for a in result.attempts) == ordered[: len(
            result.attempts
        )]


class TestPlanChain:
    def test_plan_matches_run_on_default_budget(self):
        db = small_db()
        plan = plan_chain(db, FOQuery(EXISTENTIAL))
        result = run_with_fallback(db, EXISTENTIAL, rng=0)
        assert plan.selected == result.engine

    def test_plan_does_not_consume_the_budget(self):
        db = small_db()
        budget = Budget(max_samples=10**7)
        plan_chain(db, FOQuery(EXISTENTIAL), budget=budget)
        assert budget.samples == 0
        assert budget.ground_clauses == 0

    def test_plan_reports_not_tried_tail(self):
        db = small_db()
        plan = plan_chain(db, FOQuery(EXISTENTIAL))
        outcomes = [forecast.outcome for forecast in plan.forecasts]
        assert "ok" in outcomes
        selected_at = outcomes.index("ok")
        assert all(o == "not_tried" for o in outcomes[selected_at + 1 :])
        assert "exact" in plan.describe()

    def test_static_cost_covers_every_engine(self):
        features = {name: 2.0 for name in FEATURE_NAMES}
        for engine in DEFAULT_CHAIN:
            cost = static_cost(engine, features)
            assert math.isfinite(cost) and cost > 0


class TestCalibrate:
    def test_calibrate_produces_a_usable_model(self):
        model = costmodel.calibrate(seed=11, repeats=1)
        assert model.engines, "seeded workload should calibrate engines"
        db = small_db()
        features = plan_features(db, FOQuery(EXISTENTIAL))
        for engine in model.engines:
            predicted = model.predict_seconds(engine, features)
            assert math.isfinite(predicted) and predicted > 0
