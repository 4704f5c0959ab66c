"""SerialBackend — the default: run every task in-process, choosing a kernel per group.

Tasks that share a step count, step size, checkpoint step and every step's
batch shapes form a *dispatch group*.  For each group the backend runs either
the stacked kernel (:func:`~repro.exec.stacked.run_stacked_kernel`, one
batched SGD loop for the whole group) or the per-task kernel
(:func:`~repro.exec.base.run_local_steps_kernel`, one loop per client).  The
two are bit-identical, so the choice is purely about speed: :meth:`stacks`
applies a cost rule derived from the committed regime grid in
``BENCH_substrate.json``.  Tasks the stacked kernel cannot express — a
non-batchable engine, a non-identity projection, a batch list that disagrees
with ``task.steps`` — always run per task.

:class:`~repro.exec.vectorized.VectorizedBackend` is the same backend with a
rule that stacks every eligible group.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.base import (
    ExecutionBackend,
    LocalStepsResult,
    LocalStepsTask,
    run_local_steps_kernel,
)
from repro.exec.stacked import engine_is_batchable, run_stacked_kernel
from repro.nn.network import NeuralNetwork
from repro.obs import NULL_TRACER
from repro.ops.projections import identity_projection

__all__ = ["SerialBackend", "SERIAL_BACKEND", "STACK_BUDGET"]

#: Largest stacked group the cost rule runs, in parameter floats summed over
#: the group's clients (2**17 floats = 1 MiB of float64); see
#: :meth:`SerialBackend.stacks`.
STACK_BUDGET = 2 ** 17


def _dispatch_groups(engine: NeuralNetwork, tasks: Sequence[LocalStepsTask],
                    ) -> tuple[list[list[tuple[int, LocalStepsTask]]],
                               list[tuple[int, LocalStepsTask]]]:
    """Split ``tasks`` into stackable groups and per-task leftovers.

    Returns ``(groups, leftover)``; entries are ``(position, task)`` pairs.
    The group key carries *every* step's batch shapes — not just the first's
    — so a task whose later batches are ragged lands in its own (still
    stackable) group instead of crashing ``np.stack`` mid-kernel; a batch
    list inconsistent with the declared step count is left to the per-task
    kernel, which runs exactly the batches present.
    """
    if not engine_is_batchable(engine):
        return [], list(enumerate(tasks))
    groups: dict[tuple, list[tuple[int, LocalStepsTask]]] = {}
    leftover: list[tuple[int, LocalStepsTask]] = []
    for pos, task in enumerate(tasks):
        if (task.projection is identity_projection and task.batches
                and len(task.batches) == task.steps):
            key = (task.steps, task.checkpoint_after, task.lr,
                   tuple((np.shape(X), np.shape(y))
                         for X, y in task.batches))
            groups.setdefault(key, []).append((pos, task))
        else:
            leftover.append((pos, task))
    return list(groups.values()), leftover


class SerialBackend(ExecutionBackend):
    """Execute tasks in the caller's process, on the caller's engine.

    Emits one ``client_local_steps`` span per per-task client and one per
    stacked group (``clients=n``, ``stacked=True``), plus the
    ``exec_tasks_total`` / ``exec_vectorized_tasks_total`` counters.
    """

    name = "serial"
    wants_sampler_state = False

    def stacks(self, engine: NeuralNetwork, n: int) -> bool:
        """The cost rule: run an eligible group of ``n`` tasks stacked?

        Stack when the group has at least two tasks and its stacked parameter
        tensors hold at most :data:`STACK_BUDGET` floats.  Derived from the
        regime grid (``benchmarks/bench_substrate.py``, committed in
        ``BENCH_substrate.json``; 2 steps, batch 1 and 8, 2-core VM),
        stacked ÷ per-task:

        * a single task gains nothing up to 11.7k parameters (0.7–0.9×):
          stacking removes per-task call overhead, never arithmetic;
        * inside the budget stacking won in every cell of every run —
          logistic 64/144/784→10 at n = 2…32 where they fit (1.2–5×),
          MLP 144-64-32 at n = 2, 3, 6 and MLP 784-64-32 at n = 2
          (1.06–1.9×);
        * past it the result swings between runs with what ran before the
          dispatch (MLP 784-64-32 at n = 6: 0.64–1.38×; logistic 784→10 at
          n = 32: 0.67–1.53×), and the 267k-parameter paper MLP at n = 32
          lost in every run (0.61–0.93×).
        """
        return n >= 2 and n * engine.num_parameters <= STACK_BUDGET

    def run_tasks(self, engine: NeuralNetwork, w_start: np.ndarray,
                  tasks: Sequence[LocalStepsTask], *, obs=None,
                  ) -> list[LocalStepsResult]:
        """Run every task in-process; results come back in task order."""
        obs = obs if obs is not None else NULL_TRACER
        results: list[LocalStepsResult | None] = [None] * len(tasks)
        groups, leftover = _dispatch_groups(engine, tasks)
        stacked = 0
        for members in groups:
            task0 = members[0][1]
            if not self.stacks(engine, len(members)):
                leftover.extend(members)
                continue
            with obs.span("client_local_steps", clients=len(members),
                          steps=task0.steps, stacked=True) as span:
                outs = run_stacked_kernel(engine, w_start,
                                          [task for _, task in members])
            for (pos, task), (w_end, w_ckpt) in zip(members, outs):
                results[pos] = LocalStepsResult(
                    index=task.index, client_id=task.client_id, w_end=w_end,
                    w_checkpoint=w_ckpt, busy_s=span.duration / len(members))
            stacked += len(members)
        leftover.sort(key=lambda member: member[0])
        for pos, task in leftover:
            with obs.span("client_local_steps", client=task.client_id,
                          steps=task.steps) as span:
                w_end, w_ckpt = run_local_steps_kernel(
                    engine, w_start, task.batches, lr=task.lr,
                    projection=task.projection,
                    checkpoint_after=task.checkpoint_after)
            results[pos] = LocalStepsResult(
                index=task.index, client_id=task.client_id, w_end=w_end,
                w_checkpoint=w_ckpt, busy_s=span.duration)
        if obs.enabled:
            obs.count("exec_tasks_total", len(tasks))
            obs.count("exec_vectorized_tasks_total", stacked)
        return results  # type: ignore[return-value]


#: Process-wide shared serial backend; what ``backend=None`` resolves to
#: (unless the ``REPRO_BACKEND`` environment variable overrides the default).
SERIAL_BACKEND = SerialBackend()
