"""Per-layer timing for the traced benchmark run, installed from outside.

The program is not instrumented: :class:`LayerTimers` replaces each layer's
public entry points with timing wrappers for the length of one traced run and
puts the originals back afterwards.  A name is patched where its caller looks
it up, so a function imported by name into another module (``evaluate_record``
in ``repro.core.base``) is patched in that module, and a method is patched on
its class.

Every wrapper keeps three numbers per layer key: ``calls``, ``busy_s`` (total
wall time inside the call) and ``self_s`` (busy time minus the time spent in
wrapped calls nested inside it).  The self times of all wrapped calls made
inside an interval add up to the time the outermost wrapped calls cover in
it, so ``train_s - covered_s`` is what the layer self times leave uncovered.

Only ``time.perf_counter`` and list/dict updates run per call: no tracemalloc,
no ``repro.obs`` spans.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass


@dataclass
class LayerStat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _linear_macs(engine) -> int:
    """Multiply-accumulates per input row of one forward pass (dense layers)."""
    return sum(layer.in_features * layer.out_features
               for layer in engine.layers if hasattr(layer, "in_features"))


class LayerTimers:
    """Install, collect and remove the timing wrappers of one traced run."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self.counts: dict[str, float] = {}
        self.round_ms: list[float] = []
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._macs: dict[int, int] = {}
        self._trained_ids: set[int] = set()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, owner, attr: str, key: str, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recording under ``key``."""
        original = inspect.getattr_static(owner, attr)
        stat = self.stats.setdefault(key, LayerStat())
        stack = self._stack

        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.covered_s += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def install(self, algorithm_classes) -> None:
        """Wrap every layer's entry points; ``algorithm_classes`` get ``run_round``."""
        import repro.core.base as core_base
        import repro.experiments.runner as runner
        from repro.exec.serial import SerialBackend
        from repro.faults.injector import FaultInjector
        from repro.membership.manager import MembershipManager
        from repro.nn.network import NeuralNetwork
        from repro.population.store import ClientStateStore
        from repro.population.virtual import VirtualPopulation
        from repro.sim.cloud import CloudServer
        from repro.sim.edge import EdgeServer

        self._wrap(runner, "make_federated_dataset", "data.generate")
        self._wrap(NeuralNetwork, "loss_and_gradient", "nn.loss_and_gradient",
                   after=self._after_gradient)
        self._wrap(NeuralNetwork, "accuracy_and_loss", "nn.eval")
        self._wrap(SerialBackend, "run_tasks", "exec.run_tasks",
                   after=self._after_run_tasks)
        self._wrap(EdgeServer, "model_update", "sim.model_update")
        self._wrap(EdgeServer, "estimate_loss", "sim.estimate_loss")
        self._wrap(CloudServer, "update_weights", "sim.cloud_update")
        for cls in algorithm_classes:
            self._wrap(cls, "run_round", "core.round", after=self._after_round)
        self._wrap(core_base, "evaluate_record", "metrics.evaluate")
        self._wrap(VirtualPopulation, "client", "population.client")
        self._wrap(VirtualPopulation, "end_round", "population.end_round",
                   after=self._after_end_round)
        self._wrap(ClientStateStore, "save_shards", "population.save_shards")
        self._wrap(MembershipManager, "begin_round", "membership.begin_round")
        self._wrap(MembershipManager, "roster", "membership.roster")
        self._wrap(FaultInjector, "receive", "faults.receive")
        self._wrap(core_base, "save_checkpoint_file", "faults.checkpoint.save",
                   after=self._after_checkpoint_save)
        self._wrap(core_base, "load_checkpoint_file", "faults.checkpoint.load")

    def remove(self) -> None:
        """Put every original back, innermost patch last-in first-out."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- counters
    def _after_gradient(self, args, kwargs, result, elapsed) -> None:
        engine, X = args[0], args[1]
        macs = self._macs.get(id(engine))
        if macs is None:
            macs = self._macs[id(engine)] = _linear_macs(engine)
        # Forward X@W, backward X^T@G and G@W^T: three GEMMs of 2·rows·I·O flops.
        self._count("nn.gemm_flop", 6.0 * X.shape[0] * macs)

    def _after_run_tasks(self, args, kwargs, result, elapsed) -> None:
        tasks = args[3] if len(args) > 3 else kwargs["tasks"]
        self._count("exec.tasks", len(tasks))
        self._trained_ids.update(task.client_id for task in tasks)

    def _after_round(self, args, kwargs, result, elapsed) -> None:
        self.round_ms.append(elapsed * 1e3)

    def _after_end_round(self, args, kwargs, result, elapsed) -> None:
        # Clients trained this round, counted once each: the denominator of
        # the materialization waste ratio.
        self._count("population.trained", len(self._trained_ids))
        self._trained_ids.clear()

    def _after_checkpoint_save(self, args, kwargs, result, elapsed) -> None:
        path = args[0] if args else kwargs["path"]
        self._count("faults.checkpoint.bytes", os.path.getsize(path))

    # -------------------------------------------------------------- results
    def snapshot(self) -> dict:
        """Plain-data view of everything recorded (JSON-serializable)."""
        return {"stats": {key: vars(stat) for key, stat in self.stats.items()},
                "counts": dict(self.counts),
                "round_ms": list(self.round_ms),
                "covered_s": self.covered_s}
