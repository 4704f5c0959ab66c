"""repro.exec — pluggable parallel execution of client local training.

The per-round client SGD loops are embarrassingly parallel once their
randomness is fixed; this package makes *where* they run a strategy object
(:class:`~repro.exec.base.ExecutionBackend`) chosen per run:

========== =================================================================
``serial``      the default, in-process: per dispatch group of same-shape
                tasks, the stacked kernel where the cost rule says it wins
                (two or more tasks whose stacked parameters fit
                :data:`STACK_BUDGET` — the convex runs' small logistic
                groups), the per-task kernel otherwise
``thread``      worker threads over per-thread engine clones, per-task
                kernel (GIL released inside NumPy/BLAS kernels)
``process``     persistent worker-process pool; weights broadcast once per
                dispatch via shared memory, tasks ship sampler-state tokens
``vectorized``  ``serial`` with an "always stack" rule: every eligible group
                (Linear/ReLU/Tanh stacks with softmax cross-entropy — both
                paper models) on the stacked kernel, per-task otherwise
========== =================================================================

The per-task kernel :func:`run_local_steps_kernel` defines the bits; the
stacked kernel (:mod:`repro.exec.stacked`) reproduces them exactly, so every
backend and every cost-rule choice is bit-identical for a fixed seed — see the
determinism contract in :mod:`repro.exec.base`.  The rule is derived from the
regime grid committed in ``BENCH_substrate.json`` (see
:meth:`SerialBackend.stacks`).  Select a backend with ``backend=``/
``--backend`` or the ``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment
variables.
"""

from __future__ import annotations

import os

from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    run_local_steps_kernel,
)
from repro.exec.serial import SERIAL_BACKEND, STACK_BUDGET, SerialBackend
from repro.exec.threads import ThreadBackend, default_worker_count
from repro.exec.vectorized import VectorizedBackend
from repro.exec.dispatch import (
    ClientWork,
    restore_sampler_state,
    run_local_steps,
    sampler_state_token,
)
from repro.exec.procs import ProcessBackend

__all__ = [
    "ExecutionBackend", "LocalStepsTask", "LocalStepsResult",
    "run_local_steps_kernel", "SerialBackend", "SERIAL_BACKEND",
    "STACK_BUDGET",
    "ThreadBackend", "ProcessBackend", "VectorizedBackend",
    "default_worker_count", "ClientWork", "run_local_steps",
    "sampler_state_token", "restore_sampler_state",
    "available_backends", "make_backend", "resolve_backend",
]

#: Environment variables consulted by :func:`resolve_backend`.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"
#: Per-dispatch supervision timeout (seconds) for pooled backends.
TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT_S"

_ALIASES = {
    "serial": "serial", "sync": "serial", "none": "serial",
    "thread": "thread", "threads": "thread",
    "process": "process", "processes": "process", "proc": "process",
    "mp": "process",
    "vectorized": "vectorized", "vector": "vectorized", "vec": "vectorized",
    "batched": "vectorized",
}

_POOLED = {"thread": ThreadBackend, "process": ProcessBackend}


def available_backends() -> list[str]:
    """Canonical backend names accepted by :func:`make_backend`."""
    return ["serial", "thread", "process", "vectorized"]


def _env_number(var: str, parse):
    """``parse`` applied to environment variable ``var`` (``None`` when unset
    or blank); a malformed value raises a :class:`ValueError` naming both."""
    raw = os.environ.get(var, "").strip()
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not a valid "
                         f"{parse.__name__}") from None


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by name (``workers`` applies to pooled ones)."""
    key = _ALIASES.get(str(name).strip().lower())
    if key is None:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"choose from {available_backends()}")
    if key in _POOLED:
        return _POOLED[key](workers=workers,
                            timeout_s=_env_number(TIMEOUT_ENV, float))
    if key == "vectorized":
        return VectorizedBackend()
    return SERIAL_BACKEND if workers in (None, 0, 1) else SerialBackend()


def resolve_backend(spec: "ExecutionBackend | str | None" = None,
                    workers: int | None = None) -> ExecutionBackend:
    """Resolve a user-facing backend spec into a live backend instance.

    ``spec`` may be an :class:`ExecutionBackend` (returned as-is; ``workers``
    is ignored), a name for :func:`make_backend`, or ``None`` — in which case
    the ``REPRO_BACKEND`` environment variable decides (default ``serial``).
    A ``workers`` of ``None`` likewise falls back to ``REPRO_WORKERS``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV, "").strip() or "serial"
    if workers is None:
        workers = _env_number(WORKERS_ENV, int)
    return make_backend(spec, workers)
