"""Execution-backend abstraction: how client local-SGD work is scheduled.

Every algorithm round contains an embarrassingly parallel region — the sampled
clients' local SGD loops, which share *no* mutable state once their minibatches
are fixed.  An :class:`ExecutionBackend` receives fully-formed, pre-seeded
:class:`LocalStepsTask` descriptors for that region and returns one
:class:`LocalStepsResult` per task, **in task order**.

Determinism contract
--------------------
For a fixed seed every backend must produce *bit-identical* outputs to the
per-task kernel :func:`run_local_steps_kernel` run task by task:

* Minibatch randomness is consumed *before* dispatch (in the main process, in
  task order) — either by pre-drawing the batches into the task
  (:attr:`LocalStepsTask.batches`) or, for backends that draw remotely
  (:attr:`ExecutionBackend.wants_sampler_state`), by shipping the sampler's
  exact RNG/permutation state and restoring the advanced state afterwards.
  Either way the per-client random stream advances exactly as a serial run
  would advance it.
* The SGD arithmetic itself is the pure kernel
  :func:`run_local_steps_kernel` — identical floating-point operations in
  identical order regardless of which engine object (main, per-thread clone,
  per-process replica) executes them — or the stacked kernel
  (:mod:`repro.exec.stacked`), which replays those operations for a whole
  group with one leading client axis.
* Results are returned in task order, so downstream aggregation, compression,
  fault filtering, and communication accounting happen in the same order as a
  serial run.

This invariant is what lets fault injection, checkpoint/resume, and the
algorithm-equivalence tests keep holding under any backend.

Supervision corollary
---------------------
Because every task is a *pure* function of its descriptor (the kernel consumes
no RNG; batch randomness is fixed before dispatch), a pooled backend may
re-execute a task whose worker died or hung and obtain bit-identical outputs.
:class:`~repro.exec.procs.ProcessBackend` and
:class:`~repro.exec.threads.ThreadBackend` exploit exactly this: per-dispatch
timeouts, dead-worker detection, pool respawn, and bounded deterministic
retries (see :func:`resolve_retry`) — crash recovery without any change to the
determinism contract.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.nn.network import NeuralNetwork
from repro.ops.projections import Projection, identity_projection

__all__ = ["LocalStepsTask", "LocalStepsResult", "ExecutionBackend",
           "run_local_steps_kernel", "resolve_retry", "check_timeout"]

_TIME = time.perf_counter


def resolve_retry(retry):
    """Normalize a supervised backend's ``retry=`` argument.

    ``None`` becomes the default :class:`~repro.faults.plan.RetryPolicy`
    (bounded retries with seeded backoff — the same policy object the fault
    layer uses, so retry budgets are configured in one vocabulary).  Imported
    lazily: :mod:`repro.faults` sits above :mod:`repro.exec` in the layering.
    """
    from repro.faults.plan import RetryPolicy

    if retry is None:
        return RetryPolicy()
    if not isinstance(retry, RetryPolicy):
        raise TypeError(
            f"retry must be a RetryPolicy or None, got {type(retry).__name__}")
    return retry


def check_timeout(timeout_s) -> float | None:
    """Validate a per-dispatch supervision timeout (``None`` disables it)."""
    if timeout_s is None:
        return None
    timeout_s = float(timeout_s)
    if timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
    return timeout_s


@dataclass
class LocalStepsTask:
    """One client's unit of local training, fully seeded and self-contained.

    Attributes
    ----------
    index:
        Position in the dispatch call's deterministic output order.
    client_id:
        Global client index (for spans, metrics, and shard lookup in worker
        processes).
    steps:
        Local SGD steps to run (already truncated by any straggler fault).
    lr:
        Step size ``η_w``.
    checkpoint_after:
        When set, also return a snapshot of the local model after exactly this
        many steps (Part (b) of ModelUpdate).
    projection:
        Projection applied after every step (identity = unconstrained).
    batches:
        Pre-drawn minibatches, one ``(X, y)`` pair per step — the in-process
        path.  ``None`` for backends that draw batches worker-side.
    sampler_state:
        Picklable snapshot of the client's minibatch-sampler state (``rng``
        token from :func:`repro.utils.rng.generator_token`, epoch ``order``,
        ``cursor``) — the cross-process path.  ``None`` on the in-process path.
    """

    index: int
    client_id: int
    steps: int
    lr: float
    checkpoint_after: int | None = None
    projection: Projection = identity_projection
    batches: list[tuple[np.ndarray, np.ndarray]] | None = None
    sampler_state: dict[str, Any] | None = None


@dataclass
class LocalStepsResult:
    """Outcome of one :class:`LocalStepsTask`.

    ``w_end``/``w_checkpoint`` are bit-identical to what a serial run would
    produce.  ``sampler_state`` carries the advanced sampler snapshot back when
    batches were drawn worker-side (``None`` otherwise).  ``busy_s`` is the
    worker's compute time for the task and ``queue_wait_s`` the delay between
    dispatch and the task starting — both feed the tracer's ``exec_*`` metrics
    and are *observability only* (never used in arithmetic).
    """

    index: int
    client_id: int
    w_end: np.ndarray
    w_checkpoint: np.ndarray | None = None
    sampler_state: dict[str, Any] | None = None
    busy_s: float = 0.0
    queue_wait_s: float = 0.0


def run_local_steps_kernel(engine: NeuralNetwork, w_start: np.ndarray,
                           batches: Sequence[tuple[np.ndarray, np.ndarray]], *,
                           lr: float, projection: Projection = identity_projection,
                           checkpoint_after: int | None = None,
                           ) -> tuple[np.ndarray, np.ndarray | None]:
    """The pure local-SGD kernel every backend executes (Eq. (4)).

    Runs ``len(batches)`` projected-SGD steps from ``w_start`` on ``engine``
    and returns ``(w_end, w_checkpoint)`` as copies.  The caller owns batch
    randomness; this function consumes no RNG, so the same inputs produce the
    same bits on any engine replica.

    ``w_start`` is treated as read-only.  If it aliases the engine's live
    parameter buffer it is defensively copied first — otherwise the in-place
    updates below would corrupt the caller's "start" vector mid-loop.
    """
    if np.may_share_memory(w_start, engine.params_view()):
        w_start = np.array(w_start, copy=True)
    engine.set_params(w_start)
    params = engine.params_view()
    w_checkpoint: np.ndarray | None = None
    for t1, (X, y) in enumerate(batches):
        grad = engine.gradient(X, y)  # the engine's live gradient buffer
        grad *= lr  # == lr * grad, without a parameter-sized temporary
        params -= grad
        if projection is not identity_projection:
            params[:] = projection(params)
        if checkpoint_after is not None and t1 + 1 == checkpoint_after:
            w_checkpoint = params.copy()
    return params.copy(), w_checkpoint


class ExecutionBackend(ABC):
    """Strategy object deciding *where* the per-client SGD kernels run.

    Lifecycle: backends may hold worker pools; call :meth:`close` (or use the
    instance as a context manager) when done.  All implementations are safe to
    reuse across rounds and across algorithms — worker resources are (re)built
    lazily from the engine/clients of each call.
    """

    #: Registry / ``--backend`` name of the implementation.
    name: str = "abstract"
    #: When True the dispatcher ships sampler state (cross-process path)
    #: instead of pre-drawing minibatches into the task.
    wants_sampler_state: bool = False

    def prepare(self, engine: NeuralNetwork, clients: Sequence[Any]) -> None:
        """Advertise the engine and client actors an upcoming dispatch uses.

        Called by the dispatcher before :meth:`run_tasks` (and eagerly by
        algorithms with their full client roster) so backends that replicate
        state into workers can ship engines/shards once, at pool setup, rather
        than per task.  No-op by default.
        """

    def forget_clients(self, client_ids: Sequence[int]) -> None:
        """Drop any per-client state cached for ``client_ids``.

        Virtual populations call this after each round so pooled backends do
        not accumulate every client ever dispatched (a 1M-client run would
        otherwise re-materialize the population inside the backend's shard
        registry).  No-op by default — stateless backends have nothing cached.
        """

    @abstractmethod
    def run_tasks(self, engine: NeuralNetwork, w_start: np.ndarray,
                  tasks: Sequence[LocalStepsTask], *, obs=None,
                  ) -> list[LocalStepsResult]:
        """Execute every task; return results in task order."""

    def close(self) -> None:
        """Release worker resources (idempotent; no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
