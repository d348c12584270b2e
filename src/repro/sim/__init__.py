"""Monte-Carlo static-resilience simulation of the DHT overlays.

Reproduces the simulation methodology the paper validates against (Gummadi
et al., SIGCOMM 2003): freeze routing tables, fail nodes uniformly at
random, sample surviving pairs and measure the fraction of failed paths.

The re-exports below resolve **lazily** (PEP 562): the overlay modules in
:mod:`repro.dht` register their :class:`~repro.sim.kernelspec.KernelSpec`
next to their scalar oracles by importing :mod:`repro.sim.kernelspec`, and
an eager ``from .engine import ...`` here would close an import cycle back
through :mod:`repro.dht` before its registry exists.  Lazy resolution keeps
``import repro.sim`` (and hence the spec registrations) dependency-free
while ``repro.sim.SweepRunner`` etc. keep working unchanged.
"""

from __future__ import annotations

import importlib
from typing import Tuple

#: name -> submodule that defines it; the public surface of ``repro.sim``.
_EXPORTS = {
    # kernel specs (the single-declaration routing layer)
    "KernelSpec": "kernelspec",
    "KERNEL_SPECS": "kernelspec",
    "register_kernel_spec": "kernelspec",
    "get_kernel_spec": "kernelspec",
    "has_kernel_spec": "kernelspec",
    "registered_geometries": "kernelspec",
    # kernel backends (the executors)
    "BACKEND_CHOICES": "backends",
    "KernelBackend": "backends",
    "available_backends": "backends",
    "resolve_backend": "backends",
    # churn
    "ChurnConfig": "churn",
    "ChurnSimulationResult": "churn",
    "ChurnStepResult": "churn",
    "effective_failure_probability": "churn",
    "simulate_churn": "churn",
    # engine
    "BatchRouteOutcome": "engine",
    "SweepCell": "engine",
    "SweepCellResult": "engine",
    "SweepRunStats": "engine",
    "SweepRunner": "engine",
    "route_pairs": "engine",
    "route_pairs_stacked": "engine",
    # sweep requests (shared by rcm simulate and the service)
    "SweepRequest": "request",
    "run_shard": "request",
    # sampling
    "sample_survivor_pair_arrays": "sampling",
    # static resilience
    "ResilienceSweepResult": "static_resilience",
    "StaticResilienceResult": "static_resilience",
    "build_overlay": "static_resilience",
    "measure_routability": "static_resilience",
    "simulate_geometry": "static_resilience",
    "sweep_failure_probabilities": "static_resilience",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> Tuple[str, ...]:
    return tuple(sorted(set(globals()) | set(_EXPORTS)))
