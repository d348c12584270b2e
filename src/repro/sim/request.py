"""One sweep request for both doors: ``rcm simulate`` and ``POST /v1/sweeps``.

A request names a grid (geometries × ``d`` × ``q`` × failure models, each
point measured over ``trials`` replicates of ``pairs`` pairs from one base
``seed``), optionally with adaptive trial allocation, a recorded allocation
to replay, or trace-driven churn instead of the static ``q`` sweep.  Both
doors share the body schema (:data:`SWEEP_REQUEST_SCHEMA`, embedded verbatim
in the service's generated API reference), one validator
(:meth:`SweepRequest.from_mapping`) and one shard executor
(:func:`run_shard`), which owns a shard from start to end and returns its
result document, cell accounting, phase profile and adaptive report as one
:class:`ShardResult`.  The CLI passes the flags that were given plus the
objects only it may read from disk (a churn trace, an allocation ledger);
the service passes its JSON body, which can never name a file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..dht import OVERLAY_CLASSES
from ..dht.failures import FAILURE_MODEL_KINDS
from ..exceptions import InvalidParameterError
from .engine import SweepRunner, SweepRunStats

__all__ = ["SWEEP_REQUEST_SCHEMA", "ShardResult", "SweepRequest", "run_shard", "validate_payload"]

#: Body of ``POST /v1/sweeps``.  ``q`` values are interpreted by the chosen
#: failure model (failure probability for ``uniform``, severity otherwise),
#: exactly as in ``rcm simulate``.
SWEEP_REQUEST_SCHEMA: Dict = {
    "type": "object",
    "required": ["geometries", "d"],
    "additionalProperties": False,
    "properties": {
        "geometries": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "description": "Overlay geometries to sweep (names from the live overlay registry, e.g. ring, xor, debruijn).",
        },
        "d": {
            "type": "integer",
            "minimum": 1,
            "maximum": 24,
            "description": "Identifier length; every overlay has N = 2^d nodes.",
        },
        "q": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
            "description": "Failure-model severities to sweep, each in [0, 1] (failure probability for the uniform model). Required unless 'churn' is given.",
        },
        "churn": {
            "type": "object",
            "additionalProperties": False,
            "required": ["generator", "steps"],
            "description": (
                "Trace-driven churn instead of a static q sweep: each geometry "
                "becomes one churn shard replaying a deterministically generated "
                "join/leave trace (seeded from the request seed), routing windows "
                "of steps as one stacked batch each.  Not combinable with 'q', "
                "'failure_models', 'trials' or 'adaptive'."
            ),
            "properties": {
                "generator": {
                    "type": "string",
                    "enum": ["markov", "pareto"],
                    "description": "Trace generator: independent two-state Markov chains, or heavy-tailed Pareto online/offline sessions.",
                },
                "steps": {
                    "type": "integer",
                    "minimum": 1,
                    "maximum": 100000,
                    "description": "Churn steps to simulate (one measured row per step).",
                },
                "leave_probability": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Markov generator: per-step probability an online node leaves (default 0.02).",
                },
                "rejoin_probability": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Markov generator: per-step probability an offline node rejoins (default 0.05).",
                },
                "shape": {
                    "type": "number",
                    "minimum": 1,
                    "exclusiveMinimum": True,
                    "description": "Pareto generator: tail index of the session-length distribution (must exceed 1; default 1.5).",
                },
                "mean_online": {
                    "type": "number",
                    "minimum": 1,
                    "description": "Pareto generator: mean online-session length in steps (default 20).",
                },
                "mean_offline": {
                    "type": "number",
                    "minimum": 1,
                    "description": "Pareto generator: mean offline-session length in steps (default 5).",
                },
                "pairs_per_step": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Pairs routed among usable nodes each step (default: the request's 'pairs').",
                },
                "repair_every": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Re-establish routing tables every this many steps (default: never within the run).",
                },
            },
        },
        "adaptive": {
            "type": "object",
            "additionalProperties": False,
            "required": ["ci_target"],
            "description": (
                "Variance-adaptive trial allocation instead of the uniform "
                "trials-per-point grid: each shard's sweep runs in rounds and a q "
                "point freezes once its pooled routability CI half-width reaches "
                "ci_target; 'trials' becomes the per-point cap.  Frozen points are "
                "bit-identical to the first rounds of the equivalent uniform sweep "
                "(same per-cell streams), so cached cells still hit the shared "
                "store.  Not combinable with 'churn'."
            ),
            "properties": {
                "ci_target": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Wilson CI half-width a point must reach to freeze (strictly between 0 and 1).",
                },
                "min_trials": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Trials every point receives unconditionally in the first round (default 2).",
                },
                "max_trials": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "Per-point trial cap (default: the request's 'trials').",
                },
                "confidence": {
                    "type": "number",
                    "minimum": 0,
                    "maximum": 1,
                    "description": "Confidence level of the Wilson interval (strictly between 0 and 1; default 0.95).",
                },
            },
        },
        "failure_models": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "description": "Failure-model kinds of the grid's model axis (default: [\"uniform\"]).",
        },
        "pairs": {
            "type": "integer",
            "minimum": 1,
            "description": "Surviving (source, destination) pairs sampled per cell (default: the service's --pairs).",
        },
        "trials": {
            "type": "integer",
            "minimum": 1,
            "description": "Independent failure patterns per point (default: the service's --trials).",
        },
        "seed": {
            "type": "integer",
            "minimum": 0,
            "description": "Base random seed; cells derive deterministic per-cell streams from it (default: the service's --seed).",
        },
    },
}

_CHURN_SCHEMA = SWEEP_REQUEST_SCHEMA["properties"]["churn"]

#: The request schema when the caller supplies the churn trace: the trace
#: replaces the generator, so ``churn`` keeps only the replay's settings.
_TRACE_CHURN_SCHEMA = {
    **_CHURN_SCHEMA,
    "required": [],
    "properties": {key: _CHURN_SCHEMA["properties"][key] for key in ("pairs_per_step", "repair_every")},
}
_TRACE_REQUEST_SCHEMA: Dict = {
    **SWEEP_REQUEST_SCHEMA,
    "properties": {**SWEEP_REQUEST_SCHEMA["properties"], "churn": _TRACE_CHURN_SCHEMA},
}

#: Body fields of the static ``q`` sweep, which a churn request cannot use.
_STATIC_SWEEP_FIELDS = ("q", "trials", "failure_models", "adaptive")

#: The parameters each churn generator takes from the ``churn`` object.
_GENERATOR_PARAMETERS = {
    "markov": ("leave_probability", "rejoin_probability"),
    "pareto": ("shape", "mean_online", "mean_offline"),
}


def _body_name(path: str) -> str:
    """How the service names a request field in an error message."""
    return f"'{path}'" if path else "the request body"


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
}


def validate_payload(
    payload: object, schema: Dict, name: Callable[[str], str] = _body_name, path: str = ""
) -> List[str]:
    """Validate ``payload`` against a small JSON-Schema subset.

    Supported: ``type`` (object, array, string, integer, number),
    ``required``, ``properties``, ``additionalProperties: false``,
    ``items``, ``enum``, ``minimum`` (with OpenAPI 3.0's boolean
    ``exclusiveMinimum``), ``maximum`` and ``minItems``; other
    keywords (``description``) are ignored.  Returns one message per
    problem, naming the field as ``name(path)`` for a dotted ``path``
    (``adaptive.ci_target``, ``q[0]``; ``""`` is the whole payload).
    """
    errors: List[str] = []
    expected_type = schema.get("type")
    if expected_type is not None:
        allowed = expected_type if isinstance(expected_type, list) else [expected_type]
        if not any(_TYPE_CHECKS.get(entry, lambda value: True)(payload) for entry in allowed):
            return [f"{name(path)} must be {' or '.join(allowed)}, got {type(payload).__name__}"]
    if "enum" in schema and payload not in schema["enum"]:
        errors.append(f"{name(path)} must be one of {schema['enum']}, got {payload!r}")
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        minimum: Optional[float] = schema.get("minimum")
        if minimum is not None and schema.get("exclusiveMinimum") and payload <= minimum:
            errors.append(f"{name(path)} must exceed {minimum}, got {payload}")
        elif minimum is not None and payload < minimum:
            errors.append(f"{name(path)} must be at least {minimum}, got {payload}")
        maximum: Optional[float] = schema.get("maximum")
        if maximum is not None and payload > maximum:
            errors.append(f"{name(path)} must be at most {maximum}, got {payload}")
    prefix = f"{path}." if path else ""
    if isinstance(payload, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in payload:
                errors.append(f"{name(prefix + key)} is required")
        for key, value in payload.items():
            if key in properties:
                errors.extend(validate_payload(value, properties[key], name, prefix + key))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{name(prefix + key)} is not a known field")
    if isinstance(payload, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(payload) < min_items:
            errors.append(f"{name(path)} needs at least {min_items} item(s), got {len(payload)}")
        items = schema.get("items")
        if items is not None:
            for index, value in enumerate(payload):
                errors.extend(validate_payload(value, items, name, f"{path}[{index}]"))
    return errors


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep request; build one with :meth:`from_mapping`.

    ``churn`` is the request's ``churn`` object (``None`` for a static
    sweep) and ``trace`` the caller-supplied trace that replaces its
    generator; ``adaptive`` is the resolved
    :class:`~repro.sim.adaptive.AdaptiveConfig` and ``ledger`` a recorded
    :class:`~repro.sim.adaptive.AllocationLedger` to replay.
    """

    geometries: Tuple[str, ...]
    d: int
    q: Tuple[float, ...]
    failure_models: Tuple[str, ...]
    pairs: int
    trials: int
    seed: int
    churn: Optional[Dict[str, object]] = None
    adaptive: Optional[object] = None
    trace: Optional[object] = None
    ledger: Optional[object] = None

    @classmethod
    def from_mapping(
        cls,
        mapping: object,
        *,
        defaults: Mapping[str, object],
        trace=None,
        ledger=None,
        name: Callable[[str], str] = _body_name,
    ) -> "SweepRequest":
        """Validate ``mapping`` (a JSON body, or the CLI's given flags) into a request.

        ``defaults`` fills the fields the mapping leaves out.  ``trace`` (a
        :class:`~repro.workloads.ChurnTrace`) and ``ledger`` (an
        :class:`~repro.sim.adaptive.AllocationLedger`) only the caller can
        supply; either may be a zero-argument loader, called once the mode
        rules hold, so a conflict is reported before any file is read.
        ``name(path)`` spells a dotted field path in messages.

        Checks, in order: the mode rules (churn excludes the static-sweep
        fields and a replay, ``q`` is required otherwise, a replay excludes
        adaptive allocation), the structure (:data:`SWEEP_REQUEST_SCHEMA`),
        then the semantics (registry geometries and failure-model kinds,
        churn parameters of the chosen generator only, ``q`` in ``[0, 1]``,
        an adaptive config that resolves against ``trials``).  Raises
        :class:`~repro.exceptions.InvalidParameterError`.
        """
        if not isinstance(mapping, dict):
            raise InvalidParameterError(f"{name('')} must be object, got {type(mapping).__name__}")
        churn = mapping.get("churn", {} if trace is not None else None)
        if churn is not None:
            for key in _STATIC_SWEEP_FIELDS:
                if key in mapping:
                    raise InvalidParameterError(f"{name(key)} cannot be combined with {name('churn')}")
            if ledger is not None:
                raise InvalidParameterError(
                    f"{name('replay_allocation')} cannot be combined with {name('churn')}"
                )
        elif "q" not in mapping:
            raise InvalidParameterError(f"{name('q')} is required unless {name('churn')} is given")
        if ledger is not None and "adaptive" in mapping:
            raise InvalidParameterError(
                f"{name('replay_allocation')} replays a recorded schedule; "
                f"do not combine it with {name('adaptive')}"
            )
        trace = trace() if callable(trace) else trace
        ledger = ledger() if callable(ledger) else ledger

        values = {**defaults, **mapping}
        schema = SWEEP_REQUEST_SCHEMA if trace is None else _TRACE_REQUEST_SCHEMA
        errors = validate_payload(values, schema, name)
        if errors:
            raise InvalidParameterError("; ".join(errors))
        for geometry in values["geometries"]:
            if geometry not in OVERLAY_CLASSES:
                raise InvalidParameterError(
                    f"{name('geometries')} names unknown geometry {geometry!r}; "
                    f"expected one of {sorted(OVERLAY_CLASSES)}"
                )
        models = tuple(values.get("failure_models", ("uniform",)))
        for model in models:
            if model not in FAILURE_MODEL_KINDS:
                raise InvalidParameterError(
                    f"{name('failure_models')} names unknown failure model {model!r}; "
                    f"expected one of {list(FAILURE_MODEL_KINDS)}"
                )
        if churn is not None and trace is None:
            generator = churn["generator"]
            for other, parameters in _GENERATOR_PARAMETERS.items():
                for key in parameters:
                    if other != generator and key in churn:
                        raise InvalidParameterError(
                            f"{name('churn.' + key)} is a {other} parameter; "
                            f"the {generator} generator does not take it"
                        )
        q = tuple(float(value) for value in values.get("q", ()))
        for value in q:
            if not 0.0 <= value <= 1.0:  # also rejects NaN
                raise InvalidParameterError(f"{name('q')} values must lie in [0, 1], got {value!r}")
        adaptive = values.get("adaptive")
        if adaptive is not None:
            from .adaptive import AdaptiveConfig

            adaptive = AdaptiveConfig(**adaptive).resolved(values["trials"])
        return cls(
            geometries=tuple(values["geometries"]),
            d=values["d"],
            q=q,
            failure_models=("churn",) if churn is not None else models,
            pairs=values["pairs"],
            trials=values["trials"],
            seed=values["seed"],
            churn=None if churn is None else dict(churn),
            adaptive=adaptive,
            trace=trace,
            ledger=ledger,
        )

    def as_payload(self) -> Dict[str, object]:
        """The normalised request as a JSON-safe mapping (echoed in job statuses).

        Fields that are ``None`` are left out; a service request never has a
        trace or a ledger.
        """
        return {key: value for key, value in asdict(self).items() if value is not None}

    @property
    def cells_total(self) -> int:
        """Number of grid cells the request expands to.

        A churn shard counts one cell per simulated step (each step is one
        measured row, the churn analogue of a grid point).  For adaptive
        requests this is the uniform worst case: the allocator's whole point
        is that fewer cells end up requested.
        """
        if self.churn is not None:
            steps = self.trace.n_steps if self.trace is not None else self.churn["steps"]
            return len(self.geometries) * int(steps)
        return len(self.geometries) * len(self.failure_models) * self.trials * len(self.q)

    @property
    def shards(self) -> List[Tuple[str, str]]:
        """The shard plan: one ``(geometry, failure_model)`` per shard
        (churn requests shard per geometry, labelled ``churn``)."""
        return [(geometry, model) for geometry in self.geometries for model in self.failure_models]


@dataclass(frozen=True)
class ShardResult:
    """What one :func:`run_shard` call produced.

    ``document`` is the shard's result document, ``stats`` its cell
    accounting (a churn shard computes one cell per step and caches none),
    ``profile`` its per-phase wall time, keyed by
    :data:`~repro.sim.engine.PROFILE_PHASES` names, and ``adaptive_report``
    the :class:`~repro.sim.adaptive.AdaptiveReport` of an adaptive or
    replayed sweep (``None`` otherwise).
    """

    document: Dict[str, object]
    stats: SweepRunStats
    profile: Dict[str, float]
    adaptive_report: Optional[object] = None


def run_shard(
    request: SweepRequest,
    geometry: str,
    model: str,
    *,
    backend: Optional[str],
    workers: int = 1,
    store=None,
) -> ShardResult:
    """Run one ``(geometry, failure model)`` shard of ``request`` from start to end.

    A static shard builds a :class:`~repro.sim.engine.SweepRunner` over
    ``workers`` processes (wired to the persistent cell ``store`` when one
    is given), makes one ``runner.sweep`` call (uniform, adaptive or
    replayed, as the request says) and closes the runner, with its worker
    pool, before returning.  Its document holds ``geometry``, ``system``,
    ``d``, ``failure_model``, ``backend`` and ``rows``, plus an
    ``adaptive`` block (the allocation's rounds, trial totals, widest CI
    half-width and per-point ``points``) when trials were allocated.

    A churn shard builds the overlay, replays the request's trace (or the
    one its generator describes) through ``simulate_churn`` on
    ``backend``, which routes windows of steps as one stacked batch each,
    and documents ``geometry``, ``d``, ``failure_model`` (``"churn"``),
    ``backend``, ``churn``, ``repair_every`` and ``rows``; it uses neither
    ``workers`` nor ``store``.
    """
    if request.churn is None:
        with SweepRunner(
            pairs=request.pairs,
            replicates=request.trials,
            workers=workers,
            base_seed=request.seed,
            backend=backend,
            cell_store=store,
        ) as runner:
            sweep = runner.sweep(
                geometry,
                request.d,
                list(request.q),
                model,
                adaptive=request.adaptive,
                replay_allocation=request.ledger,
            )
        document: Dict[str, object] = {
            "geometry": sweep.geometry,
            "system": sweep.system,
            "d": sweep.d,
            "failure_model": sweep.failure_model,
            "backend": sweep.backend_name,
            "rows": sweep.as_rows(),
        }
        report = runner.last_adaptive_report
        if report is not None:
            document["adaptive"] = {
                "rounds": report.rounds,
                "trials_allocated": report.trials_allocated,
                "trials_uniform": report.trials_uniform,
                "trials_saved": report.trials_saved,
                "max_ci_halfwidth": report.max_halfwidth,
                "points": report.as_rows(),
            }
        return ShardResult(document, runner.last_run_stats, runner.profile, report)

    # Looked up at call time, so a wrapped simulate_churn (tracing) is the one called.
    from . import churn as churn_module
    from .static_resilience import build_overlay

    overlay = build_overlay(geometry, request.d, seed=request.seed)
    churn = request.churn
    trace = request.trace
    if trace is None:
        from ..workloads import traces

        generate = traces.markov_trace if churn["generator"] == "markov" else traces.pareto_session_trace
        parameters = {key: float(churn[key]) for key in _GENERATOR_PARAMETERS[churn["generator"]] if key in churn}
        trace = generate(overlay.n_nodes, int(churn["steps"]), **parameters, seed=request.seed)
    config = churn_module.ChurnConfig(
        pairs_per_step=int(churn.get("pairs_per_step", request.pairs)),
        trace=trace,
        repair_every=churn.get("repair_every"),
    )
    profile: Dict[str, float] = {}
    result = churn_module.simulate_churn(
        overlay, config, seed=request.seed, backend=backend, profile=profile
    )
    document = {
        "geometry": result.geometry,
        "d": result.d,
        "failure_model": "churn",
        "backend": result.backend_name,
        "churn": dict(churn),
        "repair_every": config.repair_every,
        "rows": result.as_rows(),
    }
    steps = len(result.steps)
    stats = SweepRunStats(requested=steps, memo_hits=0, store_hits=0, computed=steps)
    return ShardResult(document, stats, profile)
