"""Calibrated per-engine cost models for the fallback executor.

The executor's static chain (safe_lifted > exact > karp_luby > montecarlo)
orders engines by *guarantee strength*, and its preflights refuse
hopeless runs from worst-case closed forms (``2 ** atoms`` worlds,
``n ** width * |templates|`` clauses, Hoeffding/Karp–Luby sample
counts).  But worst case is not *actual* cost: per-query structure —
the Dalvi–Suciu lesson — decides whether grounding plus an FPTRAS run
beats a few hundred bit-parallel world samples, and the answer flips
between queries.  This module closes the loop:

* :func:`plan_features` — cheap, closed-form features of a (db, query,
  epsilon, delta) plan: relevant-atom count, domain size, answer cells,
  predicted grounded clauses, and the two estimators' sample counts.
* :func:`fit` / :func:`fit_from_trace` — a pure-Python log-linear ridge
  regression from ``runtime.attempt.cost`` trace events (emitted by the
  executor through :mod:`repro.obs`) to per-engine wall-clock
  predictors; no third-party numerics.
* :class:`CostModel` — predicts seconds per engine, persists to a
  versioned JSON calibration file, and orders a chain by predicted
  cost **within guarantee tiers only**: the exact > relative > additive
  ordering of :data:`repro.runtime.executor.GUARANTEE_ORDER` is never
  violated.  Uncalibrated engines and corrupt calibration files fall
  back to the existing closed forms (``costmodel.fallback`` counter);
  nothing here can crash a run.
* :func:`plan_chain` — a dry-run of the executor's walk: preflights,
  fragment checks, and sequential sample-budget accounting are
  simulated without consuming the active budget, so
  :func:`repro.reliability.report.analyze` can *recommend* exactly the
  engine :func:`~repro.runtime.executor.run_with_fallback` would
  select (the differential harness pins this to 100% agreement).

Guarantee tiers are quantity-dependent, mirroring the engines
themselves: Karp–Luby is *relative* on probabilities (Theorem 5.4) but
*additive* on reliability (Corollary 5.5), so under the default
``quantity="reliability"`` it shares the additive tier with Monte
Carlo — which is precisely where calibrated reordering pays, because
grounding-heavy FPTRAS runs and a few hundred batched world samples
differ by orders of magnitude in either direction.

See docs/ROBUSTNESS.md ("Calibrated cost models") for the workflow.
"""

from __future__ import annotations

import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import neg
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.propositional.karp_luby import sample_count
from repro.reliability.exact import as_query
from repro.reliability.grounding import ground_existential_to_dnf, relevant_atoms
from repro.reliability.montecarlo import hoeffding_samples
from repro.runtime.budget import Budget, active_budget, apply
from repro.runtime.preflight import grounding_cost, worlds_cost
from repro.util.errors import CalibrationError, QueryError, ResourceError

__all__ = [
    "FEATURE_NAMES",
    "CALIBRATION_VERSION",
    "CostObservation",
    "EngineCalibration",
    "CostModel",
    "EngineForecast",
    "RaceForecast",
    "ChainPlan",
    "plan_features",
    "engine_guarantee",
    "static_cost",
    "fit",
    "fit_from_trace",
    "load_calibration",
    "load_or_fallback",
    "active_model",
    "set_model",
    "use_model",
    "resolve_model",
    "plan_chain",
    "calibration_workload",
    "calibrate",
]

#: Plan features, in design-matrix order (after the intercept).
FEATURE_NAMES: Tuple[str, ...] = (
    "atoms",
    "domain",
    "cells",
    "clauses",
    "kl_samples",
    "mc_samples",
)

#: Calibration file schema version; files with any other version are
#: *stale* and ignored (closed-form fallback), never reinterpreted.
CALIBRATION_VERSION = 1

#: Seconds one closed-form work unit is pretended to take when an
#: engine has no calibration.  The absolute value is irrelevant for
#: ordering (all uncalibrated engines share it); it only keeps
#: calibrated and uncalibrated predictions on one axis.
CLOSED_FORM_UNIT_SECONDS = 1e-6

#: Minimum per-engine observations before a fit is trusted.
MIN_OBSERVATIONS = 3

#: Guarantee ranks, strongest first (executor's GUARANTEE_ORDER).
_GUARANTEE_RANK = {"exact": 0, "relative": 1, "additive": 2}

#: Cap on feature magnitudes so ``float`` conversion of the closed
#: forms (big ints like ``n ** k``) can never overflow.
_FEATURE_CAP = 1e18

# Floors for degenerate measurements: a 0s wall clock still costs one
# log-target; predictions are clamped into a sane exponent range.
_SECONDS_FLOOR = 1e-7
_LOG_CLAMP = 50.0


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _capped(value) -> float:
    try:
        result = float(value)
    except (OverflowError, ValueError):
        return _FEATURE_CAP
    if not math.isfinite(result):
        return _FEATURE_CAP
    return min(max(result, 0.0), _FEATURE_CAP)


# ---------------------------------------------------------------------- #
# plan features and guarantee tiers
# ---------------------------------------------------------------------- #


def plan_features(
    db,
    query: Any,
    quantity: str = "reliability",
    epsilon: float = 0.05,
    delta: float = 0.05,
) -> Dict[str, float]:
    """Closed-form features of one (db, query, epsilon, delta) plan.

    All features are computable in microseconds from the query and
    database shape (``relevant_atoms`` and the DNF matrix are memoised
    in the compilation cache); nothing here samples or grounds.
    ``clauses`` is the *per-cell* Theorem 5.4 grounding bound
    (``|templates| * n ** |vars|``); ``kl_samples`` the Karp–Luby
    count for that many clauses; ``mc_samples`` the Hoeffding count.
    A query outside the existential/universal fragment simply gets
    ``clauses = 0`` — features never raise.
    """
    query = as_query(query)
    atoms = len(relevant_atoms(db, query))
    domain = db.universe_size
    arity = int(getattr(query, "arity", 0))
    cells = _capped(domain**arity) if arity else 1.0
    clauses = 0.0
    formula = query.formula if isinstance(query, FOQuery) else None
    if formula is not None:
        try:
            if is_existential(formula):
                target = formula
            elif is_universal(formula):
                target = neg(formula)
            else:
                target = None
            if target is not None:
                variables, matrix = existential_parts(target)
                templates = dnf_clauses(matrix)
                clauses = _capped(
                    grounding_cost(domain, len(variables), len(templates))
                )
        except QueryError:
            clauses = 0.0
    try:
        kl = float(sample_count(max(1, int(min(clauses, 1e9))), epsilon, delta))
        mc = float(hoeffding_samples(epsilon, delta))
    except Exception:  # invalid epsilon/delta: features stay orderable
        kl = mc = _FEATURE_CAP
    return {
        "atoms": float(atoms),
        "domain": float(domain),
        "cells": cells,
        "clauses": clauses,
        "kl_samples": _capped(kl),
        "mc_samples": _capped(mc),
    }


def engine_guarantee(engine: str, quantity: str = "reliability") -> str:
    """The guarantee tier an engine's answer would carry for ``quantity``.

    Mirrors the executor's engines: Karp–Luby is *relative* on
    probabilities (Theorem 5.4) but *additive* on reliability
    (Corollary 5.5) — the tier is a property of the answer, not the
    algorithm.  Unknown engines conservatively land in the weakest
    tier (the executor validates names before any ordering happens).
    """
    if engine in ("safe_lifted", "exact"):
        return "exact"
    if engine == "karp_luby":
        return "relative" if quantity == "probability" else "additive"
    return "additive"


def static_cost(engine: str, features: Mapping[str, float]) -> float:
    """Closed-form work units for an engine — the uncalibrated fallback.

    These are the same shapes the preflights reason about: worlds for
    exact, a small polynomial for lifted plans, grounding plus FPTRAS
    samples for Karp–Luby, Hoeffding samples priced per answer cell
    for Monte Carlo.  Units are abstract; only relative order matters,
    and only *within* a guarantee tier.
    """
    atoms = features.get("atoms", 0.0)
    domain = features.get("domain", 0.0)
    cells = max(features.get("cells", 1.0), 1.0)
    clauses = features.get("clauses", 0.0)
    kl = features.get("kl_samples", 0.0)
    mc = features.get("mc_samples", 0.0)
    if engine == "exact":
        return _capped(2.0 ** min(atoms, 400.0))
    if engine == "safe_lifted":
        return _capped(domain * domain + atoms)
    if engine == "karp_luby":
        return _capped(cells * (clauses + kl))
    if engine == "montecarlo":
        return _capped(mc * (atoms + cells))
    return _FEATURE_CAP


def delta_stream_cost(diagram_nodes: int, updates: int) -> float:
    """Closed-form work units for a delta update stream.

    One weight-only update re-evaluates at most every reachable
    diagram node — ``|BDD|`` exact multiplies — so a stream of ``m``
    updates is bounded by ``m * |BDD|`` units.  Compare against
    ``static_cost("exact", ...) * m`` (a cold recompute per update) to
    see why :class:`~repro.delta.DeltaSession` wins: the diagram is
    polynomial-size whenever compilation succeeds, while the cold form
    is ``2 ** atoms``.  Priced at the same
    :data:`CLOSED_FORM_UNIT_SECONDS` as the other closed forms.
    """
    from repro.runtime.preflight import delta_update_cost

    return _capped(float(delta_update_cost(diagram_nodes, updates)))


def predict_update_stream_seconds(diagram_nodes: int, updates: int) -> float:
    """Seconds forecast for a delta stream (closed-form pricing)."""
    obs.inc("costmodel.closed_form")
    return delta_stream_cost(diagram_nodes, updates) * CLOSED_FORM_UNIT_SECONDS


# ---------------------------------------------------------------------- #
# fitting: pure-Python ridge regression on log features
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CostObservation:
    """One timed engine attempt: the fit's training row."""

    engine: str
    seconds: float
    features: Mapping[str, float]


@dataclass(frozen=True)
class EngineCalibration:
    """A fitted per-engine predictor: weights over log1p features."""

    weights: Tuple[float, ...]
    observations: int
    rmse: float


def _design_row(features: Mapping[str, float]) -> List[float]:
    return [1.0] + [
        math.log1p(max(0.0, _capped(features.get(name, 0.0))))
        for name in FEATURE_NAMES
    ]


def _solve(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting (SPD inputs here)."""
    size = len(rhs)
    augmented = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(augmented[r][col]))
        if abs(augmented[pivot][col]) < 1e-12:
            raise CalibrationError("singular normal equations")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        lead = augmented[col][col]
        for row in range(size):
            if row == col:
                continue
            factor = augmented[row][col] / lead
            if factor:
                for k in range(col, size + 1):
                    augmented[row][k] -= factor * augmented[col][k]
    return [augmented[i][size] / augmented[i][i] for i in range(size)]


def fit(
    observations: Iterable[CostObservation], ridge: float = 1e-3
) -> "CostModel":
    """Fit per-engine log-linear predictors by ridge regression.

    ``log(seconds)`` is regressed on ``[1, log1p(feature), ...]`` via
    the normal equations; the ridge term keeps the system
    well-conditioned even on degenerate workloads (one query repeated).
    Engines with fewer than :data:`MIN_OBSERVATIONS` clean rows are
    left uncalibrated (closed-form fallback at prediction time).
    """
    grouped: Dict[str, List[CostObservation]] = {}
    for observation in observations:
        if not _finite(observation.seconds):
            continue
        grouped.setdefault(observation.engine, []).append(observation)
    engines: Dict[str, EngineCalibration] = {}
    width = len(FEATURE_NAMES) + 1
    for engine, rows in grouped.items():
        if len(rows) < MIN_OBSERVATIONS:
            continue
        xs = [_design_row(row.features) for row in rows]
        ys = [math.log(max(row.seconds, _SECONDS_FLOOR)) for row in rows]
        normal = [[0.0] * width for _ in range(width)]
        rhs = [0.0] * width
        for x, y in zip(xs, ys):
            for i in range(width):
                rhs[i] += x[i] * y
                for j in range(width):
                    normal[i][j] += x[i] * x[j]
        for i in range(width):
            normal[i][i] += ridge
        try:
            weights = _solve(normal, rhs)
        except CalibrationError:
            continue
        residual = 0.0
        for x, y in zip(xs, ys):
            predicted = sum(w * v for w, v in zip(weights, x))
            residual += (predicted - y) ** 2
        engines[engine] = EngineCalibration(
            weights=tuple(weights),
            observations=len(rows),
            rmse=math.sqrt(residual / len(rows)),
        )
    return CostModel(engines)


def fit_from_trace(records: Iterable[Mapping[str, Any]]) -> "CostModel":
    """Fit from ``runtime.attempt.cost`` trace events (JSONL or ListSink).

    Only successful attempts train the model — a refused preflight's
    microseconds say nothing about the engine's run time.
    """
    observations = []
    for record in records:
        if record.get("type") != "event":
            continue
        if record.get("name") != "runtime.attempt.cost":
            continue
        fields = record.get("fields", {})
        if fields.get("outcome") != "ok":
            continue
        engine = fields.get("engine")
        seconds = fields.get("seconds")
        if not isinstance(engine, str) or not _finite(seconds):
            continue
        features = {
            name: _capped(fields.get(name, 0.0)) for name in FEATURE_NAMES
        }
        observations.append(CostObservation(engine, float(seconds), features))
    return fit(observations)


# ---------------------------------------------------------------------- #
# the model: predict, order, persist
# ---------------------------------------------------------------------- #


class CostModel:
    """Per-engine wall-clock predictors with tier-safe chain ordering.

    A model with no calibrated engines (``CostModel()``, the cold-start
    and corrupt-file fallback) predicts from the closed forms, so it is
    always usable; :meth:`order_chain` never reorders across guarantee
    tiers regardless of how degenerate the calibration is.
    """

    __slots__ = ("engines", "source")

    def __init__(
        self,
        engines: Optional[Mapping[str, EngineCalibration]] = None,
        source: str = "",
    ):
        self.engines = dict(engines or {})
        self.source = source

    def calibrated(self, engine: str) -> bool:
        return engine in self.engines

    def predict_seconds(
        self, engine: str, features: Mapping[str, float]
    ) -> float:
        """Predicted wall-clock seconds (finite, positive, sortable).

        Uncalibrated engines price their closed form at
        :data:`CLOSED_FORM_UNIT_SECONDS` per work unit; a calibration
        whose weights produce a non-finite response predicts ``+inf``
        (it sorts last within its tier, never crashes a comparison).
        """
        calibration = self.engines.get(engine)
        if calibration is None:
            obs.inc("costmodel.closed_form")
            return static_cost(engine, features) * CLOSED_FORM_UNIT_SECONDS
        response = 0.0
        for weight, value in zip(calibration.weights, _design_row(features)):
            response += weight * value
        if not math.isfinite(response):
            return math.inf
        return math.exp(max(-_LOG_CLAMP, min(_LOG_CLAMP, response)))

    def order_chain(
        self,
        chain: Sequence[str],
        features: Mapping[str, float],
        quantity: str = "reliability",
    ) -> Tuple[str, ...]:
        """Sort a chain by predicted cost within guarantee tiers only.

        The chain is split into maximal consecutive runs of equal
        guarantee tier; each run is stably sorted by prediction; runs
        are concatenated in their original order.  The tier *sequence*
        of the output is therefore identical to the input's — the
        exact > relative > additive contract survives any calibration,
        including adversarial ones (NaN predictions sort last).
        """
        ordered: List[str] = []
        run: List[str] = []
        run_tier: Optional[str] = None

        def flush() -> None:
            if not run:
                return
            keyed = [
                (self.predict_seconds(name, features), index, name)
                for index, name in enumerate(run)
            ]
            keyed.sort(
                key=lambda item: (
                    1 if math.isnan(item[0]) else 0,
                    item[0],
                    item[1],
                )
            )
            ordered.extend(name for _, _, name in keyed)
            run.clear()

        for name in chain:
            tier = engine_guarantee(name, quantity)
            if tier != run_tier:
                flush()
                run_tier = tier
            run.append(name)
        flush()
        result = tuple(ordered)
        if result != tuple(chain):
            obs.inc("costmodel.reordered")
        return result

    # -- persistence ---------------------------------------------------- #

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": CALIBRATION_VERSION,
            "features": list(FEATURE_NAMES),
            "engines": {
                name: {
                    "weights": list(calibration.weights),
                    "observations": calibration.observations,
                    "rmse": calibration.rmse,
                }
                for name, calibration in sorted(self.engines.items())
            },
        }

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_payload(cls, payload: Any, source: str = "") -> "CostModel":
        """Validate a calibration payload; raise :class:`CalibrationError`.

        Per-engine validation is independent: a *partial* file keeps
        its valid engines and drops the broken ones (each drop counts
        one ``costmodel.fallback``) — a half-good calibration still
        beats closed forms for the engines it does cover.
        """
        if not isinstance(payload, dict):
            raise CalibrationError("calibration payload is not an object")
        if payload.get("version") != CALIBRATION_VERSION:
            raise CalibrationError(
                f"stale calibration version {payload.get('version')!r}; "
                f"expected {CALIBRATION_VERSION} — re-run `repro calibrate`"
            )
        if payload.get("features") != list(FEATURE_NAMES):
            raise CalibrationError(
                "calibration feature list does not match this build"
            )
        raw_engines = payload.get("engines")
        if not isinstance(raw_engines, dict):
            raise CalibrationError("calibration has no engines table")
        width = len(FEATURE_NAMES) + 1
        engines: Dict[str, EngineCalibration] = {}
        for name, entry in raw_engines.items():
            try:
                weights = tuple(float(w) for w in entry["weights"])
                if len(weights) != width:
                    raise ValueError("weight vector has the wrong length")
                if not all(math.isfinite(w) for w in weights):
                    raise ValueError("non-finite weight")
                observations = int(entry.get("observations", 0))
                rmse = float(entry.get("rmse", 0.0))
            except (TypeError, KeyError, ValueError):
                obs.inc("costmodel.fallback")
                continue
            engines[name] = EngineCalibration(weights, observations, rmse)
        return cls(engines, source=source)


def load_calibration(path: Union[str, "os.PathLike"]) -> CostModel:
    """Load and validate a calibration file; raise :class:`CalibrationError`."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration file: {exc}") from exc
    except ValueError as exc:
        raise CalibrationError(
            f"calibration file {path!s} is not valid JSON: {exc}"
        ) from exc
    return CostModel.from_payload(payload, source=str(path))


def load_or_fallback(path: Union[str, "os.PathLike"]) -> CostModel:
    """Load a calibration, degrading to closed forms instead of failing.

    A missing, unreadable, stale, or corrupt file yields a *cold*
    model (no calibrated engines → closed-form predictions) and one
    ``costmodel.fallback`` increment; `run`/`analyze` never crash on a
    bad calibration file.
    """
    try:
        return load_calibration(path)
    except CalibrationError as exc:
        obs.inc("costmodel.fallback")
        obs.event("costmodel.load_failed", path=str(path), detail=str(exc))
        return CostModel(source=str(path))


# ---------------------------------------------------------------------- #
# active-model registry (mirrors obs recorder / runtime budget patterns)
# ---------------------------------------------------------------------- #

_active_model: Optional[CostModel] = None


def active_model() -> Optional[CostModel]:
    """The model the executor consults when none is passed explicitly."""
    return _active_model


def set_model(model: Optional[CostModel]) -> Optional[CostModel]:
    """Install ``model`` as the active one; returns the previous."""
    global _active_model
    previous = _active_model
    _active_model = model
    return previous


@contextmanager
def use_model(model: Optional[CostModel]):
    """Scope-install a cost model (restored on exit)."""
    previous = set_model(model)
    try:
        yield model
    finally:
        set_model(previous)


def resolve_model(
    model: Union[None, CostModel, str, "os.PathLike"]
) -> Optional[CostModel]:
    """Normalise a ``cost_model`` argument: None → active, path → load."""
    if model is None:
        return active_model()
    if isinstance(model, CostModel):
        return model
    return load_or_fallback(model)


# ---------------------------------------------------------------------- #
# plan_chain: a budget-aware dry run of the executor
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineForecast:
    """One engine's predicted fate in a chain walk."""

    engine: str
    guarantee: str
    #: "ok" | "cost_refused" | "fragment_mismatch" | "skipped_static"
    #: (the dichotomy router excludes the engine statically) |
    #: "not_tried"
    outcome: str
    predicted_seconds: float
    detail: str = ""
    #: Sampling engines only, under ``plan_chain(..., adaptive=True)``:
    #: the surrogate's expected draw count versus the worst-case bound
    #: the preflight reserves.  ``None`` elsewhere.
    expected_samples: Optional[int] = None
    worst_samples: Optional[int] = None


@dataclass(frozen=True)
class RaceForecast:
    """The simulated race: who launches when, who wins, who is wasted.

    Produced by ``plan_chain(..., race=...)`` — an event simulation of
    :func:`repro.runtime.racing.run_race` over the model's predicted
    per-engine seconds.  ``outcomes`` maps every engine in the chain to
    its predicted fate: ``"won"``, ``"preempted"``, ``"cancelled"``,
    ``"not_launched"``, ``"skipped_static"`` (excluded by the dichotomy
    router before launch), or a failure outcome (``"cost_refused"``,
    ``"fragment_mismatch"``, ``"budget_exceeded"``).
    ``finish_seconds`` gives each launched engine's predicted completion
    time on the race clock; ``elapsed_seconds`` is the predicted race
    wall-clock (the winner's decision time).
    """

    winner: Optional[str]
    overlap: float
    launch_order: Tuple[str, ...]
    outcomes: Mapping[str, str]
    finish_seconds: Mapping[str, float]
    elapsed_seconds: float


@dataclass(frozen=True)
class ChainPlan:
    """The simulated walk: ordered chain, forecasts, selected engine.

    ``dichotomy`` carries the static Dalvi–Suciu verdict
    (:class:`repro.logic.safety.SafeVerdict` /
    :class:`~repro.logic.safety.UnsafeVerdict`) the router consulted:
    the #P-hardness witness of an unsafe query travels with its
    forecast, and ``analyze --explain-dichotomy`` renders it.
    """

    chain: Tuple[str, ...]
    selected: Optional[str]
    forecasts: Tuple[EngineForecast, ...]
    features: Mapping[str, float]
    race: Optional[RaceForecast] = None
    dichotomy: Optional[Any] = None

    def describe(self) -> str:
        lines = []
        for forecast in self.forecasts:
            mark = "->" if forecast.engine == self.selected else "  "
            line = (
                f"{mark} {forecast.engine}: {forecast.outcome} "
                f"[{forecast.guarantee}] "
                f"~{forecast.predicted_seconds:.3g}s"
            )
            if forecast.worst_samples is not None:
                expected = forecast.expected_samples
                if expected is not None and expected < forecast.worst_samples:
                    line += (
                        f" samples~{expected}/{forecast.worst_samples}"
                        " expected/worst"
                    )
                else:
                    line += f" samples<={forecast.worst_samples}"
            if forecast.detail:
                line += f" — {forecast.detail}"
            lines.append(line)
        if self.race is not None:
            lines.append(
                f"race (overlap={self.race.overlap:g}): "
                f"winner={self.race.winner or 'none'} "
                f"~{self.race.elapsed_seconds:.3g}s, "
                f"launched {', '.join(self.race.launch_order) or 'nothing'}"
            )
        if self.dichotomy is not None:
            lines.append(f"dichotomy: {self.dichotomy.summary()}")
        return "\n".join(lines)


def _neutral_budget() -> Budget:
    """An uncapped budget for simulation-side grounding.

    ``plan_chain`` must be read-only with respect to the caller's
    budget: grounding done to *predict* a run may not consume the
    clause allowance of the run itself.  (The compiled grounding is
    cached, so the real run reuses it rather than paying twice.)
    """
    return Budget(max_atoms=None)


def _forecast_exact(db, query, budget, features) -> Tuple[str, str, int]:
    limit = budget.world_limit()
    estimate = worlds_cost(int(features["atoms"]))
    if limit is not None and estimate > limit:
        return (
            "cost_refused",
            f"2^{int(features['atoms'])} worlds over limit {limit}",
            0,
        )
    return "ok", "", 0


def _kl_targets(db, query, quantity):
    """The Boolean existential sentences one Karp–Luby attempt grounds."""
    formula = query.formula
    if quantity == "probability":
        if not is_existential(formula):
            raise QueryError("sentence is not existential")
        return [formula], 1
    if query.arity == 0:
        if is_existential(formula):
            return [formula], 1
        if is_universal(formula):
            return [neg(formula)], 1
        raise QueryError(
            "Corollary 5.5 applies to existential or universal queries only"
        )
    if not (is_existential(formula) or is_universal(formula)):
        raise QueryError(
            "Corollary 5.5 applies to existential or universal queries only"
        )
    n = db.universe_size
    cells = n**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    targets = []
    for args in product(db.structure.universe, repeat=query.arity):
        inner = query.instantiated(args)
        if is_existential(inner):
            targets.append(inner)
        elif is_universal(inner):
            targets.append(neg(inner))
        else:
            raise QueryError(
                "Corollary 5.5 applies to existential or universal queries only"
            )
    return targets, cells


def _forecast_karp_luby(
    db, query, quantity, epsilon, delta, budget, samples_used
) -> Tuple[str, str, int]:
    if not isinstance(query, FOQuery):
        return (
            "fragment_mismatch",
            "karp_luby engine requires a first-order query",
            0,
        )
    try:
        targets, cells = _kl_targets(db, query, quantity)
    except QueryError as exc:
        return "fragment_mismatch", str(exc), 0
    per_delta = delta / cells if cells > 1 else delta
    cap = budget.max_samples
    consumed = 0
    for target in targets:
        try:
            with apply(_neutral_budget()):
                predicted = _simulated_grounding_cost(db, target, budget)
                if predicted is not None:
                    return predicted[0], predicted[1], consumed
                grounding = ground_existential_to_dnf(db, target)
        except QueryError as exc:
            return "fragment_mismatch", str(exc), consumed
        if grounding.dnf.is_true() or grounding.dnf.is_false():
            continue
        needed = sample_count(len(grounding.dnf.clauses), epsilon, per_delta)
        if cap is not None:
            remaining = max(0, cap - budget.samples - samples_used - consumed)
            if needed > remaining:
                return (
                    "cost_refused",
                    f"needs {needed} samples, {remaining} remain",
                    consumed,
                )
        consumed += needed
    return "ok", "", consumed


def _simulated_grounding_cost(db, target, budget):
    """Mirror ``preflight_grounding`` against the *real* budget.

    Returns a ``(outcome, detail)`` pair when the real run would refuse
    the grounding, else ``None``.  Runs inside the neutral budget so
    the caller's allowance is untouched.
    """
    limit = budget.max_ground_clauses
    if limit is None:
        return None
    try:
        variables, matrix = existential_parts(target)
    except QueryError:
        return None
    templates = dnf_clauses(matrix)
    estimate = grounding_cost(db.universe_size, len(variables), len(templates))
    if estimate > limit:
        return (
            "cost_refused",
            f"grounding needs {estimate} clauses over limit {limit}",
        )
    return None


def _forecast_montecarlo(
    db, query, quantity, epsilon, delta, budget, samples_used
) -> Tuple[str, str, int]:
    if quantity == "reliability":
        cells = db.universe_size ** int(getattr(query, "arity", 0))
        if cells == 0:
            return (
                "fragment_mismatch",
                "reliability undefined on an empty universe",
                0,
            )
    needed = hoeffding_samples(epsilon, delta)
    cap = budget.max_samples
    if cap is not None:
        remaining = max(0, cap - budget.samples - samples_used)
        if needed > remaining:
            return (
                "cost_refused",
                f"needs {needed} samples, {remaining} remain",
                0,
            )
    return "ok", "", needed


def _forecast_engine(
    db, query, quantity, epsilon, delta, budget, features, name, samples_used
) -> Tuple[str, str, int]:
    """Dispatch to the per-engine forecast: (outcome, detail, samples)."""
    if name == "exact":
        return _forecast_exact(db, query, budget, features)
    if name == "safe_lifted":
        # Only dispatched on a safe verdict (the plan loop and the race
        # partition skip it otherwise), and a safe verdict is the
        # admissibility proof: the plan is polynomial, no preflight.
        return "ok", "", 0
    if name == "karp_luby":
        return _forecast_karp_luby(
            db, query, quantity, epsilon, delta, budget, samples_used
        )
    return _forecast_montecarlo(
        db, query, quantity, epsilon, delta, budget, samples_used
    )


class _SimRacer:
    """Mutable per-engine state of the racing simulation."""

    __slots__ = ("index", "name", "rank", "outcome", "detail", "finish", "predicted")

    def __init__(self, index: int, name: str, rank: int, predicted: float):
        self.index = index
        self.name = name
        self.rank = rank
        self.outcome: Optional[str] = None
        self.detail = ""
        self.finish: Optional[float] = None
        self.predicted = predicted


def _simulate_race(
    db, query, chain, budget, quantity, epsilon, delta, scorer, features, overlap
) -> RaceForecast:
    """Event-simulate :func:`repro.runtime.racing.run_race` on model time.

    The simulation replays the racing driver's loop exactly — launch
    stagger (``overlap`` of the fair-share slice, or of the nominal
    share without a deadline), instant completions for preflight
    refusals and fragment mismatches, ``predicted_seconds`` completions
    for engines forecast ``ok``, cumulative chain-order sample
    reservations (the same ``_forecast_*`` arithmetic the executor's
    reservations reuse), equal-time completions processed before
    launches, early launch on a failure cascade, and the
    winner/held/preempt rules of ``on_complete``.  Under budgets made of
    caps (no deadline) and a cost model whose predictions match the
    engines' stall times, the forecast winner is the race winner — the
    racing differential harness scripts exactly that correspondence.
    """
    from repro.runtime.racing import NOMINAL_SHARE_SECONDS

    total = len(chain)
    deadline = budget.deadline_seconds
    racers = [
        _SimRacer(
            index,
            name,
            _GUARANTEE_RANK.get(engine_guarantee(name, quantity), 3),
            scorer.predict_seconds(name, features),
        )
        for index, name in enumerate(chain)
    ]
    pending = list(racers)
    contenders: List[_SimRacer] = []
    events: List[_SimRacer] = []  # launched, completion not yet processed
    launch_order: List[str] = []
    held: Optional[_SimRacer] = None
    winner: Optional[_SimRacer] = None
    samples_reserved = 0
    t = 0.0
    next_launch_at = 0.0

    def launch(racer: _SimRacer) -> None:
        nonlocal samples_reserved, next_launch_at
        remaining = None if deadline is None else deadline - t
        if remaining is not None and remaining <= 0:
            racer.outcome = "budget_exceeded"
            racer.detail = "deadline exhausted before the engine started"
            racer.finish = t
            return
        share = None if remaining is None else remaining / (total - racer.index)
        outcome, detail, spent = _forecast_engine(
            db, query, quantity, epsilon, delta, budget, features,
            racer.name, samples_reserved,
        )
        samples_reserved += spent
        if outcome == "ok":
            racer.finish = t + racer.predicted
            if share is not None and racer.predicted > share:
                outcome = "budget_exceeded"
                detail = f"predicted {racer.predicted:.3g}s over {share:.3g}s slice"
            elif deadline is not None and racer.finish > deadline:
                outcome = "budget_exceeded"
                detail = f"predicted finish {racer.finish:.3g}s past the deadline"
        else:
            racer.finish = t
        racer.outcome = outcome
        racer.detail = detail
        launch_order.append(racer.name)
        contenders.append(racer)
        events.append(racer)
        next_launch_at = t + overlap * (
            share if share is not None else NOMINAL_SHARE_SECONDS
        )

    def on_complete(racer: _SimRacer) -> None:
        nonlocal held, winner, next_launch_at
        if racer in contenders:
            contenders.remove(racer)
        if racer.outcome == "ok":
            for other in list(contenders):
                if other.rank >= racer.rank:
                    other.outcome = "cancelled"
                    other.detail = f"preempted by {racer.name!r}"
                    contenders.remove(other)
                    if other in events:
                        events.remove(other)
            for other in pending:
                other.outcome = "not_launched"
            pending.clear()
            if held is not None:
                held.outcome = "preempted"
                held.detail = f"preempted by stronger engine {racer.name!r}"
            held = racer
        elif not contenders and held is None and pending:
            next_launch_at = t

        if held is not None and not any(r.rank < held.rank for r in contenders):
            winner = held
            held = None

    while winner is None and (pending or events):
        while pending and winner is None and (not contenders or t >= next_launch_at):
            launch(pending.pop(0))
        if winner is not None or not events:
            continue
        racer = min(events, key=lambda r: (r.finish, r.index))
        if pending and contenders and next_launch_at < racer.finish:
            # The driver's wait times out at the launch target first.
            t = max(t, next_launch_at)
            continue
        events.remove(racer)
        t = max(t, racer.finish)
        on_complete(racer)

    for racer in contenders:
        racer.outcome = "cancelled"
        racer.detail = racer.detail or "cancelled when the race was decided"
    for racer in pending:
        racer.outcome = "not_launched"
    if winner is not None:
        winner.outcome = "won"
    return RaceForecast(
        winner=winner.name if winner is not None else None,
        overlap=overlap,
        launch_order=tuple(launch_order),
        outcomes={racer.name: racer.outcome or "not_launched" for racer in racers},
        finish_seconds={
            racer.name: racer.finish for racer in racers if racer.finish is not None
        },
        elapsed_seconds=t,
    )


def plan_chain(
    db,
    query: Any,
    chain: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
    quantity: str = "reliability",
    epsilon: float = 0.05,
    delta: float = 0.05,
    cost_model: Union[None, CostModel, str, "os.PathLike"] = None,
    race: Union[None, bool, float] = None,
    adaptive: Union[None, bool] = None,
) -> ChainPlan:
    """Dry-run the fallback executor: predict its walk without running it.

    The simulation mirrors :func:`~repro.runtime.executor.run_with_fallback`
    step for step — the same chain ordering under the same cost model,
    the same preflights against the same budget (the active one when
    ``budget`` is None), the same fragment checks, and sequential
    sample-consumption accounting across attempts (a partially-consumed
    Karp–Luby attempt shrinks what Monte Carlo preflights against).
    Under budgets made of ``max_atoms`` / ``max_samples`` caps the
    forecast is *exact*: the selected engine is the engine the real run
    answers with.  Deadlines are inherently racy and running
    world/clause caps depend on cache state, so those can diverge —
    the differential harness pins the exact cases.

    The caller's budget is never consumed: simulation-side grounding
    runs under a neutral budget (and warms the compilation cache the
    real run then hits).

    ``race`` mirrors the executor's parameter: ``True`` (or an overlap
    fraction) simulates the speculative race instead of the sequential
    walk — the returned plan carries a :class:`RaceForecast` in
    ``plan.race``, ``selected`` is the predicted race winner, and each
    engine's forecast outcome is its predicted fate in the race.

    ``adaptive`` mirrors the executor's parameter too: the cost model
    is wrapped by the same surrogate adjustment
    (:func:`repro.runtime.adaptive.surrogate_adjusted`), so predicted
    seconds for the sampling engines reflect expected stopping while
    sample-cap *preflights stay worst-case* — exactly what the real run
    reserves, which is what keeps analyze/run engine selection in
    lockstep.  Sampling-engine forecasts additionally carry
    ``expected_samples``/``worst_samples``.
    """
    from repro.logic.safety import classify_dichotomy
    from repro.runtime.executor import (
        DEFAULT_CHAIN,
        ENGINES,
        race_partition,
        static_skip_detail,
    )

    if quantity not in ("reliability", "probability"):
        raise QueryError(
            f"unknown quantity {quantity!r}; use 'reliability' or 'probability'"
        )
    chain = tuple(chain) if chain is not None else DEFAULT_CHAIN
    if not chain:
        raise ResourceError("engine chain is empty")
    unknown = [name for name in chain if name not in ENGINES]
    if unknown:
        raise ResourceError(
            f"unknown engines {unknown}; available: {sorted(ENGINES)}"
        )
    query = as_query(query)
    if quantity == "probability" and getattr(query, "arity", 0) != 0:
        raise QueryError(
            "quantity='probability' needs a Boolean (0-ary) query; "
            "use quantity='reliability' for k-ary queries"
        )
    budget = budget if budget is not None else active_budget()
    model = resolve_model(cost_model)
    adaptive = bool(adaptive)
    surrogate = None
    if adaptive:
        from repro.runtime.adaptive import (
            active_surrogate,
            surrogate_adjusted,
        )

        surrogate = active_surrogate()
        if model is not None:
            # Identical wrapping to run_with_fallback: analyze/run
            # chain ordering cannot drift apart under adaptivity.
            model = surrogate_adjusted(model, surrogate)
    features = plan_features(db, query, quantity, epsilon, delta)
    if model is not None:
        chain = model.order_chain(chain, features, quantity)
    if model is not None:
        scorer = model
    elif adaptive:
        from repro.runtime.adaptive import surrogate_adjusted

        # Display-side only: with no model there is no reordering to
        # keep in agreement, but forecasts (and serve admission's
        # deadline arithmetic) should still price expected stopping.
        scorer = surrogate_adjusted(CostModel(), surrogate)
    else:
        scorer = CostModel()
    verdict = classify_dichotomy(query)

    if race is not None and race is not False:
        from repro.runtime.racing import DEFAULT_OVERLAP

        overlap = DEFAULT_OVERLAP if race is True else float(race)
        if not (overlap >= 0.0 and math.isfinite(overlap)):
            raise ResourceError(
                f"race overlap must be a finite fraction >= 0, got {race!r}"
            )
        # The executor partitions the (ordered) chain before launching:
        # statically-skipped engines never race.  Simulate over the
        # same trimmed chain so shares and staggers line up exactly.
        race_chain, skipped = race_partition(chain, verdict, quantity)
        if race_chain:
            forecast = _simulate_race(
                db, query, race_chain, budget, quantity, epsilon, delta,
                scorer, features, overlap,
            )
        else:
            forecast = RaceForecast(
                winner=None,
                overlap=overlap,
                launch_order=(),
                outcomes={},
                finish_seconds={},
                elapsed_seconds=0.0,
            )
        outcomes = dict(forecast.outcomes)
        details = {name: detail for name, detail in skipped}
        for name in details:
            outcomes[name] = "skipped_static"
        forecast = RaceForecast(
            winner=forecast.winner,
            overlap=forecast.overlap,
            launch_order=forecast.launch_order,
            outcomes=outcomes,
            finish_seconds=forecast.finish_seconds,
            elapsed_seconds=forecast.elapsed_seconds,
        )
        race_forecasts = tuple(
            EngineForecast(
                name,
                engine_guarantee(name, quantity),
                forecast.outcomes[name],
                scorer.predict_seconds(name, features),
                details.get(name, ""),
            )
            for name in chain
        )
        return ChainPlan(
            chain,
            forecast.winner,
            race_forecasts,
            features,
            race=forecast,
            dichotomy=verdict,
        )

    forecasts: List[EngineForecast] = []
    selected: Optional[str] = None
    samples_used = 0
    for name in chain:
        predicted = scorer.predict_seconds(name, features)
        tier = engine_guarantee(name, quantity)
        if selected is not None:
            forecasts.append(
                EngineForecast(name, tier, "not_tried", predicted)
            )
            continue
        if name == "safe_lifted":
            skip_detail = static_skip_detail(name, verdict)
            if skip_detail is not None:
                forecasts.append(
                    EngineForecast(
                        name, tier, "skipped_static", 0.0, skip_detail
                    )
                )
                continue
        outcome, detail, spent = _forecast_engine(
            db, query, quantity, epsilon, delta, budget, features, name,
            samples_used,
        )
        samples_used += spent
        expected: Optional[int] = None
        worst: Optional[int] = None
        if name in ("karp_luby", "montecarlo") and spent > 0:
            worst = spent
            if surrogate is not None:
                fraction = surrogate.expected_fraction(name)
                expected = max(1, math.ceil(spent * fraction))
        forecasts.append(
            EngineForecast(
                name,
                tier,
                outcome,
                predicted,
                detail,
                expected_samples=expected,
                worst_samples=worst,
            )
        )
        if outcome == "ok":
            selected = name
    return ChainPlan(
        chain, selected, tuple(forecasts), features, dichotomy=verdict
    )


# ---------------------------------------------------------------------- #
# calibration: a seeded workload, run and fit in one call
# ---------------------------------------------------------------------- #


def calibration_workload(
    seed: int = 0, cases: int = 8
) -> List[Tuple[Any, Any, str]]:
    """A seeded mixed workload of (db, query, quantity) calibration cases.

    Mixes the fragments the engines specialise in: safe conjunctive
    (lifted), quantifier-free and small existential (exact), larger
    existential and universal (Karp–Luby vs Monte Carlo), and a binary
    query (per-cell amplification).  Database sizes stay small enough
    that every engine answers in well under a second — calibration is
    about *relative* cost.
    """
    from repro.workloads.random_db import random_unreliable_database

    rng = random.Random(seed)
    queries = [
        ("exists x. exists y. E(x, y) & S(y)", None, "reliability"),
        ("exists x. S(x)", None, "probability"),
        ("forall x. exists y. E(x, y) | S(x)", None, "reliability"),
        ("exists x. exists y. E(x, y) | (S(x) & S(y))", None, "reliability"),
        ("exists y. E(x, y)", ["x"], "reliability"),  # unary: per-cell costs
        ("S(x) & ~S(y)", ["x", "y"], "reliability"),  # quantifier-free, binary
    ]
    workload = []
    for index in range(cases):
        size = rng.choice((3, 4, 5))
        db = random_unreliable_database(
            random.Random(rng.getrandbits(32)),
            size=size,
            relations={"E": 2, "S": 1},
            density=rng.choice((0.3, 0.5)),
        )
        text, free, quantity = queries[index % len(queries)]
        workload.append((db, FOQuery(text, free), quantity))
    return workload


def calibrate(
    cases: Optional[Sequence[Tuple[Any, Any, str]]] = None,
    epsilon: float = 0.1,
    delta: float = 0.1,
    rng: int = 0,
    repeats: int = 2,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> CostModel:
    """Run the workload through every engine and fit a model.

    Each case is executed once per engine as a single-engine chain
    (engines that refuse or mismatch simply contribute no row), with a
    trace recorder capturing the executor's ``runtime.attempt.cost``
    events — the same pipeline a production trace file feeds through
    :func:`fit_from_trace`.  Repeats mix cold- and warm-cache timings.

    The accuracy targets are *spread* per case (``epsilon`` down to
    ``epsilon / 5``): the batched sampling kernels make wall-clock
    nearly flat in the sample count, and without observations across a
    wide ``kl_samples``/``mc_samples`` range the log-linear fit would
    extrapolate a steep sample-count slope onto tight-accuracy
    workloads and overpredict by orders of magnitude.
    """
    from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
    from repro.util.errors import FallbackExhausted

    if cases is None:
        cases = calibration_workload(seed)
    run_budget = budget if budget is not None else Budget(max_atoms=14)
    sink = obs.ListSink()
    recorder = obs.StatsRecorder(sink=sink)
    previous = obs.set_recorder(recorder)
    try:
        spread = (1.0, 0.5, 0.2)
        for repeat in range(max(1, repeats)):
            for case_index, (db, query, quantity) in enumerate(cases):
                factor = spread[(case_index + repeat) % len(spread)]
                for engine in DEFAULT_CHAIN:
                    try:
                        run_with_fallback(
                            db,
                            query,
                            chain=(engine,),
                            budget=run_budget,
                            quantity=quantity,
                            epsilon=max(1e-3, epsilon * factor),
                            delta=max(1e-3, delta * factor),
                            rng=rng + repeat * 1000 + case_index,
                        )
                    except FallbackExhausted:
                        continue
    finally:
        obs.set_recorder(previous)
    model = fit_from_trace(sink.events)
    obs.inc("costmodel.calibrations")
    obs.gauge("costmodel.calibrated_engines", len(model.engines))
    return model
