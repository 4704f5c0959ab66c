"""One benchmark replicate in a fresh process: set up, train, check, report.

``run.py`` starts this script once per replicate (and once per set-up probe)
with the environment already pinned, and reads the JSON object it prints as
its last line.  Usage::

    python3 perfbench/worker.py --workload fig3-roster --seed 7 --workdir DIR \\
        --spawned-at <time.monotonic() of the parent> [--trace] [--setup-only] \\
        [--hierminimax-runs N]

``--hierminimax-runs N`` (fig3-roster only) runs HierMinimax alone on the
seeds ``seed .. seed + N - 1``, each on its own dataset: extra samples of its
accuracy curve, which ``run.py`` needs many of for a steady time to target.

The process drives only the public API: the experiment presets,
``make_algorithm``, ``PopulationSpec``, ``FederatedAlgorithm.run`` with its
``logger=`` callback, and ``save_checkpoint`` / ``load_checkpoint``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import (ALGORITHMS, ChurnPlan, FaultPlan, MembershipManager,
                   PopulationSpec, make_algorithm, make_model_factory)
from repro.experiments.presets import FIGURE_ALGORITHMS, fig3_preset
from repro.experiments.runner import build_preset_dataset, build_preset_model

# ---------------------------------------------------------------- workloads
#: fig3-roster: the Fig. 3 convex preset, all five algorithms, fewer slots.
FIG3_SLOTS = 800
#: population-churn: 20k virtual clients under churn, dropout and checkpoints.
#: Labels are iid and features 64-dimensional, where random class means are
#: nearly equidistant, so every edge poses the same task and its difficulty
#: barely depends on the seed; all 200 edges are evaluated every round.
POP_EDGES, POP_CLIENTS_PER_EDGE = 200, 100
POP_ROUNDS, POP_CHECKPOINT_EVERY = 8, 4
POP_M_EDGES = 5


#: Speed probes a set-up probe process times after its set-up.
SETUP_SPEED_PROBES = 20
# Small enough for a single-threaded GEMM: the probe never wakes BLAS threads.
_PROBE_X = np.full((8, 256), 0.5)
_PROBE_W = np.full((256, 64), 0.01)


def probe() -> float:
    """Wall time of one fixed ~2 ms kernel: a Python loop, small numpy ops and
    small GEMMs, the three kinds of work the workloads are made of.

    The machine's speed drifts by tens of percent over minutes; timing this
    kernel between evaluations tracks that drift, and ``run.py`` rescales the
    run's timings by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    v = np.ones(64)
    for _ in range(300):
        v = v * 1.0001 + 0.5
    for _ in range(20):
        _PROBE_X @ _PROBE_W
    return time.perf_counter() - start


class Ledger:
    """Minimal observer for the membership layer: tallies its events.

    The manager reports each transition as an event carrying the active
    population after it; the churn ledger balances when ``joined - left``
    equals the net change of that population.
    """

    def __init__(self) -> None:
        self.actions: dict[str, int] = {}
        self.first_active: int | None = None
        self.last_active: int | None = None

    def event(self, name: str, **fields) -> None:
        action = fields.get("action", name)
        self.actions[action] = self.actions.get(action, 0) + 1
        if self.first_active is None:
            self.first_active = fields["active"]
        self.last_active = fields["active"]

    def count(self, name: str, amount: float = 1.0) -> None:
        """Counters are recomputed from events; nothing to do."""


class Replicate:
    """State and measurements of one replicate run."""

    def __init__(self) -> None:
        self.timers = None
        self.train_s = 0.0
        self.covered_s = 0.0
        self.setup_end: float | None = None
        self.run_start = 0.0
        self.results: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: One accuracy curve per recorded (HierMinimax) run.
        self.curves: list[dict[str, list]] = []
        self.steps = 0
        self.extra: dict = {}
        self.probes: list[float] = []
        self.probe_s = 0.0

    def logger(self, record: bool = False):
        """Logger that times a speed probe after every evaluation event and,
        with ``record`` (HierMinimax), starts a new curve that records each
        event's accuracies, its time since the start of ``run()`` (probe time
        excluded) and the probe timings taken during the run."""
        curve = None
        if record:
            curve = {"rounds": [], "worst": [], "average": [], "t": [],
                     "probes": []}
            self.curves.append(curve)

        def log(event: dict) -> None:
            if event.get("event") != "round":
                return
            start = time.perf_counter()
            if curve is not None:
                curve["rounds"].append(int(event["round"]))
                curve["worst"].append(float(event["worst_acc"]))
                curve["average"].append(float(event["avg_acc"]))
                curve["t"].append(start - self.run_start - self.probe_s)
            elapsed = probe()
            # The first probe of a process also pays one-time costs.
            if curve is not None and self.probes:
                curve["probes"].append(elapsed)
            self.probes.append(elapsed)
            self.probe_s += time.perf_counter() - start
        return log

    def run(self, algo, rounds: int, **kwargs):
        """Time one ``run()`` call; ``setup_s`` ends at the first one."""
        if self.setup_end is None:
            self.setup_end = time.monotonic()
        covered = self.timers.covered_s if self.timers is not None else 0.0
        self.run_start = time.perf_counter()
        self.probe_s = 0.0
        result = algo.run(rounds=rounds, **kwargs)
        self.train_s += time.perf_counter() - self.run_start - self.probe_s
        if self.timers is not None:
            self.covered_s += self.timers.covered_s - covered
        return result

    def check(self, name: str, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(f"{name}: {message}")
        return ok


def _client_steps(algo) -> int:
    """Local-SGD steps the algorithm's clients executed (eager rosters)."""
    edges = getattr(algo, "edges", None)
    clients = ([c for edge in edges for c in edge.clients] if edges is not None
               else algo.clients)
    return sum(c.sgd_steps_taken for c in clients)


def _check_result(rep: Replicate, name: str, res) -> bool:
    """Finite model and losses; mixing weights on the simplex."""
    ok = rep.check(name, bool(np.all(np.isfinite(res.final_params))),
                   "final model is not finite")
    for point in res.history.points:
        rec = point.record
        ok &= rep.check(name, bool(np.all(np.isfinite(rec.per_edge_loss))),
                        f"non-finite loss at round {point.round_index}")
    weights = [point.weights for point in res.history.points] + [res.final_weights]
    for p in weights:
        if p is not None:
            ok &= rep.check(name, bool(p.min() >= -1e-12
                                       and abs(p.sum() - 1.0) <= 1e-9),
                            "mixing weights off the simplex")
    return ok


def fig3_roster(rep: Replicate, seed: int, setup_only: bool,
                hierminimax_runs: int = 0):
    """All five algorithms on ``seed``, or with ``hierminimax_runs`` only
    HierMinimax on that many consecutive seeds."""
    preset = fig3_preset("small").with_overrides(slots=FIG3_SLOTS)
    if hierminimax_runs:
        jobs = [(s, ("hierminimax",)) for s in range(seed, seed + hierminimax_runs)]
    else:
        jobs = [(seed, FIGURE_ALGORITHMS)]
    for run_seed, names in jobs:
        dataset = build_preset_dataset(preset, seed=run_seed)
        factory = build_preset_model(preset, dataset)
        for name in names:
            rep.attempted += 1
            try:
                algo = make_algorithm(
                    name, dataset, factory, batch_size=preset.batch_size,
                    eta_w=preset.eta_w, eta_p=preset.eta_p, tau1=preset.tau1,
                    tau2=preset.tau2, m_edges=preset.m_edges, seed=run_seed,
                    logger=rep.logger(record=name == "hierminimax"))
                if setup_only:
                    rep.setup_end = time.monotonic()
                    return
                rounds = preset.rounds_for(algo.slots_per_round)
                eval_every = preset.eval_every_for(algo.slots_per_round)
                res = rep.run(algo, rounds, eval_every=eval_every)
                rep.steps += _client_steps(algo)
                ok = _check_result(rep, name, res)
                rep.results.append(res)
                rep.failed += not ok
            except Exception as exc:  # noqa: BLE001 - counted, reported, not fatal
                rep.failed += 1
                rep.errors.append(f"{name}: {type(exc).__name__}: {exc}")


def population_churn(rep: Replicate, seed: int, setup_only: bool, workdir: Path):
    spec = PopulationSpec(num_edges=POP_EDGES, clients_per_edge=POP_CLIENTS_PER_EDGE,
                          samples_per_client=8, test_per_edge=32,
                          dim=64, class_scale=0.6, partition="iid", seed=seed)
    factory = make_model_factory("logistic", spec.input_dim, spec.num_classes)
    churn = ChurnPlan(arrive=0.05, depart=0.02, edge_mttf=20, edge_mttr=3,
                      seed=seed + 1)
    faults = FaultPlan(client_dropout=0.1, seed=seed + 2)
    kwargs = dict(batch_size=8, eta_w=0.1, eta_p=2e-3, tau1=2, tau2=2,
                  m_edges=POP_M_EDGES, seed=seed, faults=faults)
    ckpt = workdir / "hierminimax.ckpt.json"
    shards = workdir / "shards"
    rep.attempted += 1
    try:
        ledger = Ledger()
        algo = make_algorithm("hierminimax", spec, factory,
                              churn=MembershipManager(churn, obs=ledger),
                              logger=rep.logger(record=True), **kwargs)
        if setup_only:
            rep.setup_end = time.monotonic()
            return
        res = rep.run(algo, POP_ROUNDS, eval_every=1, checkpoint_path=ckpt,
                      checkpoint_every=POP_CHECKPOINT_EVERY,
                      checkpoint_shard_dir=shards)
        store = algo.population.store
        rep.steps += sum(store.get(cid, "meta")["sgd_steps_taken"]
                         for cid in store.client_ids()
                         if store.get(cid, "meta") is not None)
        ok = _check_result(rep, "hierminimax", res)
        joined = ledger.actions.get("joined", 0)
        left = ledger.actions.get("left", 0)
        ok &= rep.check("churn", joined - left == ledger.last_active
                        - ledger.first_active,
                        f"ledger imbalance: {joined} joined - {left} left != "
                        f"{ledger.last_active} - {ledger.first_active}")
        fresh = make_algorithm("hierminimax", spec, factory,
                               churn=MembershipManager(churn), **kwargs)
        done = fresh.load_checkpoint(ckpt, shard_dir=shards)
        ok &= rep.check("checkpoint", done == POP_ROUNDS
                        and np.array_equal(fresh.w, algo.w)
                        and np.array_equal(fresh.p, algo.p),
                        "reloaded w/p differ from the live run")
        rep.extra = {"ledger": dict(sorted(ledger.actions.items())),
                     "materialized": algo.population.clients_materialized_total}
        rep.results.append(res)
        rep.failed += not ok
    except Exception as exc:  # noqa: BLE001
        rep.failed += 1
        rep.errors.append(f"hierminimax: {type(exc).__name__}: {exc}")


WORKLOADS = {
    "fig3-roster": fig3_roster,
    "population-churn": population_churn,
}


def digest(rep: Replicate) -> str:
    """Hash of every final model, mixing-weight vector and history."""
    h = hashlib.sha256()
    for res in rep.results:
        h.update(res.algorithm.encode())
        h.update(np.ascontiguousarray(res.final_params).tobytes())
        if res.final_weights is not None:
            h.update(np.ascontiguousarray(res.final_weights).tobytes())
        for point in res.history.points:
            rec = point.record
            h.update(repr((point.round_index, point.slots,
                           sorted(point.comm.cycles.items()),
                           sorted(point.comm.floats.items()))).encode())
            h.update(rec.per_edge_accuracy.tobytes())
            h.update(rec.per_edge_loss.tobytes())
            if point.weights is not None:
                h.update(point.weights.tobytes())
    h.update(json.dumps(rep.extra, sort_keys=True).encode())
    return h.hexdigest()


def environment() -> dict:
    """Interpreter, numpy and BLAS build facts recorded beside the results."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # noqa: BLE001 - older numpy: no dict mode
        blas = {}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def _link_mb(res, link: str) -> float:
    return sum(v for k, v in res.comm.floats.items()
               if k.split(":", 1)[0] == link) * 8 / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--hierminimax-runs", type=int, default=0)
    args = ap.parse_args(argv)
    if args.hierminimax_runs and args.workload != "fig3-roster":
        ap.error("--hierminimax-runs applies to fig3-roster only")

    rep = Replicate()
    if args.trace:
        from layers import LayerTimers

        rep.timers = LayerTimers()
        rep.timers.install({ALGORITHMS[name] for name in FIGURE_ALGORITHMS})
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        extra = ((workdir,) if args.workload == "population-churn"
                 else (args.hierminimax_runs,) if args.workload == "fig3-roster"
                 else ())
        WORKLOADS[args.workload](rep, args.seed, args.setup_only, *extra)
    finally:
        if rep.timers is not None:
            rep.timers.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    while len(rep.probes) < (SETUP_SPEED_PROBES if args.setup_only else 2):
        rep.probes.append(probe())
    out = {
        "setup_s": (rep.setup_end - args.spawned_at
                    if rep.setup_end is not None else None),
        "attempted": rep.attempted,
        "failed": rep.failed,
        "errors": rep.errors,
        "env": environment(),
        # The first probe of a process also pays one-time costs; leave it out.
        "probe_s": statistics.mean(rep.probes[1:]),
    }
    if not args.setup_only:
        out.update({
            "train_s": rep.train_s,
            "client_steps": rep.steps,
            "curves": [
                {key: curve[key] for key in ("rounds", "worst", "average", "t")}
                | {"probe_s": (statistics.mean(curve["probes"]) if curve["probes"]
                               else statistics.mean(rep.probes[1:]))}
                for curve in rep.curves],
            "edge_cloud_mb": sum(res.comm.edge_cloud_bytes for res in rep.results) / 1e6,
            "client_edge_mb": sum(_link_mb(res, "client_edge") for res in rep.results),
            "edge_cloud_cycles": sum(res.comm.edge_cloud_cycles
                                     for res in rep.results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": digest(rep),
            "extra": rep.extra,
        })
        if rep.timers is not None:
            out["layers"] = rep.timers.snapshot()
            out["covered_s"] = rep.covered_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
