"""Micro-benchmarks of the hot substrate kernels.

These are classic pytest-benchmark timings (many iterations) of the operations
the simulation spends its time in — the targets any optimization work should be
measured against, per the profile-first workflow of the HPC guides:

* fused forward+backward of the two paper models,
* the simplex projection behind every weight update,
* client-edge aggregation (weighted averaging of model vectors),
* one full HierMinimax training round,
* per-phase wall-clock attribution of a traced experiment run,
* per-task-vs-parallel dispatch speedup of the execution backends,
* the dispatch regime grid behind the default backend's cost rule.

All phase timings come from the observability layer's span data (one shared
timing source), never from per-bench ad-hoc timers — so the per-phase numbers
and the backend comparisons are directly comparable across reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.registry import make_algorithm
from repro.data.registry import make_federated_dataset
from repro.exec import SerialBackend
from repro.nn.models import logistic_regression, make_model_factory, mlp
from repro.ops.numerics import weighted_average
from repro.ops.projections import project_capped_simplex, project_simplex


class PerTaskBackend(SerialBackend):
    """The default backend with stacking off: every task on the per-task
    kernel.  The reference every dispatch speedup below is measured against."""

    name = "per-task"

    def stacks(self, engine, n):
        return False


@pytest.fixture(scope="module")
def batch():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(8, 784))
    y = gen.integers(0, 10, size=8)
    return X, y


def test_logistic_loss_and_gradient(benchmark, batch):
    """Paper model #1: 7850-parameter multinomial logistic regression."""
    X, y = batch
    model = logistic_regression(784, 10, rng=0)
    benchmark(model.loss_and_gradient, X, y)


def test_mlp_loss_and_gradient(benchmark, batch):
    """Paper model #2: 266,610-parameter MLP(300, 100)."""
    X, y = batch
    model = mlp(784, (300, 100), 10, rng=0)
    benchmark(model.loss_and_gradient, X, y)


def test_simplex_projection(benchmark):
    """Eq. (7)'s Π_P on a 100-edge weight vector (the Synthetic row's size)."""
    gen = np.random.default_rng(0)
    v = gen.normal(size=100)
    out = benchmark(project_simplex, v)
    assert abs(out.sum() - 1.0) < 1e-9


def test_capped_simplex_projection(benchmark):
    """The general-constraint variant of Π_P (bisection solve)."""
    gen = np.random.default_rng(0)
    v = gen.normal(size=100)
    out = benchmark(project_capped_simplex, v, 0.001, 0.5)
    assert abs(out.sum() - 1.0) < 1e-6


def test_model_aggregation(benchmark):
    """Client-edge aggregation of 10 MLP-sized parameter vectors."""
    gen = np.random.default_rng(0)
    models = gen.normal(size=(10, 266_610))
    weights = gen.random(10) + 0.1
    benchmark(weighted_average, models, weights)


def test_hierminimax_round(benchmark):
    """One full Algorithm 1 training round on the tiny EMNIST layout."""
    dataset = make_federated_dataset("emnist_digits", seed=0, scale="tiny")
    factory = make_model_factory("logistic", dataset.input_dim,
                                 dataset.num_classes)
    algo = make_algorithm("hierminimax", dataset, factory, batch_size=8,
                          eta_w=0.05, eta_p=2e-3, tau1=2, tau2=2, m_edges=5,
                          seed=0)
    counter = iter(range(10**9))

    def one_round():
        algo.run_round(next(counter))

    benchmark(one_round)


def test_phase_attribution(make_tracer, save_report, bench_trajectory):
    """Where does a traced experiment run spend its time?

    Runs the tiny Fig. 3 preset under a :class:`repro.obs.Tracer` and archives
    the per-algorithm span breakdown (phase1 / phase2 / evaluate / edge_block /
    client_local_steps), the metric snapshot, and the JSONL trace itself —
    the observability layer's answer to "which phase should optimization work
    target".
    """
    from repro.experiments.presets import fig3_preset
    from repro.experiments.runner import run_experiment

    preset = fig3_preset(scale="tiny").with_overrides(slots=240, eval_points=4)
    tracer = make_tracer("phase_attribution", meta={"bench": "substrate"},
                         write_max_depth=2)
    out = run_experiment(preset, seed=0, obs=tracer)
    tracer.close()

    lines = ["algorithm            phase                       seconds"]
    containers = ("cloud_round",)  # wrapper, not a phase
    for name, phases in out.phase_times.items():
        # The "run" span is the tracer's own wall-clock for the whole training
        # run — the span-derived replacement for any ad-hoc outer timer.
        for span, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
            if span not in containers:
                label = "total (run span)" if span == "run" else span
                lines.append(f"{name:<20s} {label:<26s} {seconds:8.3f}")
    counters = out.metrics.get("counters", {})
    lines.append(f"sgd_steps_total = {counters.get('sgd_steps_total', 0)}   "
                 f"edge_cloud_bytes = {counters.get('edge_cloud_bytes', 0)}")
    report = "\n".join(lines)
    save_report("phase_attribution",
                {"phase_times": {k: dict(v) for k, v in out.phase_times.items()},
                 "setup_times": dict(out.setup_times),
                 "metrics": out.metrics}, report)
    # Perf trajectory: the preset is pinned to the tiny scale, so the work
    # and traffic totals are machine-independent and gate exactly.
    wall_s = sum(phases.get("run", 0.0) for phases in out.phase_times.values())
    bench_trajectory("substrate", {
        "phase_attribution_sgd_steps": {
            "value": counters.get("sgd_steps_total", 0), "kind": "counter"},
        "phase_attribution_edge_cloud_bytes": {
            "value": counters.get("edge_cloud_bytes", 0), "kind": "bytes"},
        "phase_attribution_wall_s": {"value": wall_s, "kind": "seconds"},
    }, context={"preset": "fig3/tiny", "slots": 240})
    assert out.phase_times, "tracer produced no per-phase attribution"
    for name in preset.algorithms:
        assert name in out.phase_times


def test_backend_speedup(save_report, bench_trajectory):
    """Per-task-vs-backend dispatch of a 32-client round (execution backends).

    Dispatches the same 32-client × τ1-step local-training round through the
    per-task reference and every execution backend and reports wall-clock,
    speedup, and worker telemetry.
    Every number is read back from tracer *span data* (an ``exec_dispatch``
    span wraps each round) so all backends share one timing source; the
    per-backend worker-busy / broadcast-bytes metrics come from the same
    tracer snapshot.  The dispatch results are also checked bit-identical to
    the per-task kernel — the speedup is free, not bought with the
    determinism contract.
    """
    from repro.data.registry import make_federated_dataset
    from repro.exec import ClientWork, available_backends, make_backend, \
        run_local_steps
    from repro.nn.models import make_model_factory
    from repro.obs import Tracer
    from repro.sim.builder import build_flat_clients
    from repro.utils.rng import RngFactory

    rounds, steps, workers = 30, 4, 2
    fed = make_federated_dataset("emnist_digits", scale="tiny", seed=0,
                                 num_edges=8, clients_per_edge=4,
                                 partition="similarity")
    factory = make_model_factory("logistic", fed.input_dim, fed.num_classes)
    assert fed.num_clients == 32

    def dispatch_rounds(name):
        """Run the round `rounds` times on backend `name`; span-timed."""
        engine = factory()
        clients = build_flat_clients(fed, batch_size=8,
                                     rng_factory=RngFactory(5))
        tracer = Tracer(None)  # metrics/span collection only, no JSONL file
        w = np.zeros(engine.params_view().size)
        finals = None
        backend = (PerTaskBackend() if name == "per-task"
                   else make_backend(name, workers=workers))
        with backend as b:
            for _ in range(rounds):
                work = [ClientWork(c, steps) for c in clients]
                with tracer.span("exec_dispatch", backend=name):
                    results = run_local_steps(b, engine, w, work, lr=0.05,
                                              obs=tracer)
                finals = np.stack([r.w_end for r in results])
        seconds = tracer.span_totals()["exec_dispatch"]["total_s"]
        snap = tracer.snapshot()
        telemetry = {
            "busy_s": snap["histograms"].get("exec_worker_busy_s",
                                             {}).get("sum", seconds),
            "broadcast_bytes": snap["counters"].get("exec_broadcast_bytes", 0),
        }
        tracer.close()
        return seconds, finals, telemetry

    ref_s, ref_w, _ = dispatch_rounds("per-task")
    lines = [f"32 clients x {steps} local steps x {rounds} rounds "
             f"(logistic, d={fed.input_dim * fed.num_classes + fed.num_classes})",
             f"{'backend':<12s} {'seconds':>8s} {'speedup':>8s} "
             f"{'busy_s':>8s} {'bcast_MB':>9s}  identical",
             f"{'per-task':<12s} {ref_s:8.3f} {'1.00x':>8s} "
             f"{ref_s:8.3f} {0.0:9.2f}  True"]
    rows = {"per-task": {"seconds": ref_s, "speedup": 1.0}}
    speedups = {}
    for name in available_backends():
        seconds, finals, telemetry = dispatch_rounds(name)
        identical = bool(np.array_equal(ref_w, finals))
        speedups[name] = ref_s / seconds
        rows[name] = {"seconds": seconds, "speedup": speedups[name],
                      "worker_busy_s": telemetry["busy_s"],
                      "broadcast_bytes": telemetry["broadcast_bytes"],
                      "identical": identical}
        lines.append(
            f"{name:<12s} {seconds:8.3f} {speedups[name]:7.2f}x "
            f"{telemetry['busy_s']:8.3f} "
            f"{telemetry['broadcast_bytes'] / 1e6:9.2f}  "
            f"{identical}")
        assert identical, f"{name} backend diverged from per-task bits"
    report = "\n".join(lines)
    save_report("backend_speedup",
                {"rounds": rounds, "steps": steps, "workers": workers,
                 "clients": fed.num_clients, "backends": rows}, report)
    # Perf trajectory: the stacking speedups (vectorized, and the default
    # serial backend whose cost rule stacks this 32 x 650-float group) are
    # the backend ratios that must hold on any machine (they remove Python
    # overhead, not waits on cores), so they gate; thread/process depend on
    # the runner's cores and ride along as context only.  Broadcast bytes
    # are deterministic traffic.
    bench_trajectory("substrate", {
        "backend_speedup_vectorized": {
            "value": speedups["vectorized"], "kind": "ratio"},
        "backend_speedup_serial": {
            "value": speedups["serial"], "kind": "ratio"},
        "backend_broadcast_bytes_process": {
            "value": rows["process"]["broadcast_bytes"], "kind": "bytes"},
        "backend_serial_wall_s": {"value": rows["serial"]["seconds"],
                                  "kind": "seconds"},
        "backend_per_task_wall_s": {"value": ref_s, "kind": "seconds"},
    }, context={"clients": fed.num_clients, "rounds": rounds, "steps": steps,
                "speedup_thread": round(speedups.get("thread", 0.0), 3),
                "speedup_process": round(speedups.get("process", 0.0), 3)})
    # Acceptance: ≥2x for a 32-client round.  Stacking removes the
    # per-client Python overhead, so it must deliver even on one core;
    # thread/process only help with real cores to spread across.
    for name in ("vectorized", "serial"):
        assert speedups[name] >= 2.0, (
            f"{name} speedup {speedups[name]:.2f}x < 2x over per-task")


def test_backend_speedup_mlp(save_report, bench_trajectory):
    """Batched MLP kernel vs per-task dispatch of a 32-client round.

    Same shape as :func:`test_backend_speedup` but with the non-convex MLP
    engine — the case the vectorized backend used to punt to the per-client
    fallback.  The tracer's ``exec_vectorized_tasks_total`` counter proves
    every task actually took the batched path (a silent fallback would
    "pass" the bit-identity check at per-task speed), and the dispatch
    results stay bit-identical to the per-task kernel.
    """
    from repro.data.registry import make_federated_dataset
    from repro.exec import ClientWork, make_backend, run_local_steps
    from repro.nn.models import make_model_factory
    from repro.obs import Tracer
    from repro.sim.builder import build_flat_clients
    from repro.utils.rng import RngFactory

    rounds, steps, hidden = 30, 4, (16,)
    fed = make_federated_dataset("emnist_digits", scale="tiny", seed=0,
                                 num_edges=8, clients_per_edge=4,
                                 partition="similarity")
    factory = make_model_factory("mlp", fed.input_dim, fed.num_classes,
                                 hidden=hidden)
    assert fed.num_clients == 32

    def dispatch_rounds(name):
        engine = factory()
        clients = build_flat_clients(fed, batch_size=8,
                                     rng_factory=RngFactory(5))
        tracer = Tracer(None)
        w = np.zeros(engine.num_parameters)
        finals = None
        backend = (PerTaskBackend() if name == "per-task"
                   else make_backend(name, workers=2))
        with backend as b:
            for _ in range(rounds):
                work = [ClientWork(c, steps) for c in clients]
                with tracer.span("exec_dispatch", backend=name):
                    results = run_local_steps(b, engine, w, work, lr=0.05,
                                              obs=tracer)
                finals = np.stack([r.w_end for r in results])
        seconds = tracer.span_totals()["exec_dispatch"]["total_s"]
        counters = tracer.snapshot()["counters"]
        tracer.close()
        return seconds, finals, counters

    ref_s, ref_w, _ = dispatch_rounds("per-task")
    vec_s, vec_w, counters = dispatch_rounds("vectorized")
    batched = int(counters.get("exec_vectorized_tasks_total", 0))
    assert batched == rounds * fed.num_clients, (
        f"MLP tasks fell back to per-task: {batched} of "
        f"{rounds * fed.num_clients} took the batched kernel")
    assert np.array_equal(ref_w, vec_w), (
        "batched MLP kernel diverged from per-task bits")
    speedup = ref_s / vec_s
    report = (f"32 clients x {steps} steps x {rounds} rounds "
              f"(mlp{hidden}, d={factory().num_parameters})\n"
              f"per-task   {ref_s:8.3f}s\n"
              f"vectorized {vec_s:8.3f}s  {speedup:.2f}x  "
              f"batched_tasks={batched}")
    save_report("backend_speedup_mlp",
                {"rounds": rounds, "steps": steps, "hidden": list(hidden),
                 "per_task_s": ref_s, "vectorized_s": vec_s,
                 "speedup": speedup, "batched_tasks": batched}, report)
    bench_trajectory("substrate", {
        "backend_speedup_vectorized_mlp": {"value": speedup, "kind": "ratio"},
        "backend_mlp_batched_tasks": {"value": batched, "kind": "counter"},
        "backend_per_task_mlp_wall_s": {"value": ref_s, "kind": "seconds"},
    }, context={"clients": fed.num_clients, "rounds": rounds, "steps": steps,
                "hidden": list(hidden)})
    # Acceptance: ≥2x batched-MLP round speedup over per-task at 32 clients;
    # the archived ratio above makes perf-check hold it in CI.
    assert speedup >= 2.0, f"batched MLP speedup {speedup:.2f}x < 2x"


def test_fused_evaluation(save_report, bench_trajectory):
    """Fused accuracy+loss kernel vs the old two-forward-pass evaluation.

    Times :meth:`NeuralNetwork.accuracy_and_loss` against the pre-fusion
    equivalent (``accuracy`` then ``loss``) on the stacked edge test sets —
    the matrix size where the forward pass, not Python overhead, carries the
    cost, so the ratio is stable enough to gate.  Both sides are span-timed
    by one tracer so the comparison shares a timing source.  The sweep-level
    contract (``evaluate_per_edge`` byte-identical to the two-pass loop over
    every edge) is asserted alongside, untimed.
    """
    from repro.data.registry import make_federated_dataset
    from repro.metrics.evaluation import evaluate_per_edge
    from repro.nn.models import make_model_factory
    from repro.obs import Tracer

    sweeps = 100
    fed = make_federated_dataset("emnist_digits", scale="tiny", seed=0,
                                 num_edges=8, clients_per_edge=4,
                                 partition="similarity")
    engine = make_model_factory("mlp", fed.input_dim, fed.num_classes,
                                hidden=(64,), l2=1e-3)()
    engine.initialize(0)
    w = engine.get_params()
    X = np.tile(np.concatenate([e.test.X for e in fed.edges]), (10, 1))
    y = np.tile(np.concatenate([e.test.y for e in fed.edges]), 10)

    tracer = Tracer(None)
    for _ in range(sweeps):
        with tracer.span("eval_two_pass"):
            acc_old, loss_old = engine.accuracy(X, y), engine.loss(X, y)
        with tracer.span("eval_fused"):
            acc_new, loss_new = engine.accuracy_and_loss(X, y)
    totals = tracer.span_totals()
    tracer.close()
    assert (acc_old, loss_old) == (acc_new, loss_new), (
        "fused kernel diverged from the two-pass results")
    sweep_old = np.array([[engine.accuracy(e.test.X, e.test.y),
                           engine.loss(e.test.X, e.test.y)]
                          for e in fed.edges])
    sweep_acc, sweep_loss = evaluate_per_edge(engine, w, fed)
    assert sweep_old[:, 0].tobytes() == sweep_acc.tobytes(), (
        "fused evaluate_per_edge accuracy diverged from the two-pass bytes")
    assert sweep_old[:, 1].tobytes() == sweep_loss.tobytes(), (
        "fused evaluate_per_edge loss diverged from the two-pass bytes")
    old_s = totals["eval_two_pass"]["total_s"]
    new_s = totals["eval_fused"]["total_s"]
    speedup = old_s / new_s
    report = (f"{X.shape[0]} rows x {sweeps} sweeps (mlp(64,))\n"
              f"two-pass {old_s:8.3f}s\nfused    {new_s:8.3f}s  "
              f"{speedup:.2f}x")
    save_report("fused_evaluation",
                {"sweeps": sweeps, "rows": int(X.shape[0]),
                 "two_pass_s": old_s, "fused_s": new_s,
                 "speedup": speedup}, report)
    bench_trajectory("substrate", {
        "eval_fused_speedup": {"value": speedup, "kind": "ratio"},
    }, context={"rows": int(X.shape[0]), "sweeps": sweeps})
    assert speedup >= 1.2, (
        f"fused evaluation barely beats two-pass ({speedup:.2f}x)")


#: The dispatch regime grid: model (input width, hidden widths) × clients per
#: dispatch group × batch rows, two local steps each — the logistic models of
#: the reduced-scale and paper-scale convex runs, mid-size MLPs, and the
#: paper's 784-300-100 MLP (~267k parameters).
GRID_MODELS = {"logistic64": (64, ()), "logistic144": (144, ()),
               "logistic784": (784, ()),
               "mlp144-64-32": (144, (64, 32)),
               "mlp784-64-32": (784, (64, 32)),
               "mlp784-300-100": (784, (300, 100))}
GRID_CLIENTS = (1, 2, 3, 6, 32)
GRID_BATCH = (1, 8)
GRID_STEPS = 2
#: Default dispatch ÷ per-task floor gated in every cell: the cost rule may
#: only stack where stacking wins, so the default is never slower than the
#: per-task kernel beyond timing noise.
GRID_FLOOR = 0.95


def _grid_tasks(engine, n, batch, rng):
    from repro.exec.base import LocalStepsTask

    return [LocalStepsTask(
        index=i, client_id=i, steps=GRID_STEPS, lr=0.05,
        batches=[(rng.normal(size=(batch, engine.input_dim)),
                  rng.integers(0, engine.output_dim, size=batch))
                 for _ in range(GRID_STEPS)]) for i in range(n)]


def _dispatch_seconds(tracer, backend, engine, w, tasks):
    """One warm dispatch's seconds (for the report), span-timed."""
    backend.run_tasks(engine, w, tasks)
    with tracer.span("grid_dispatch") as span:
        backend.run_tasks(engine, w, tasks)
    return span.duration


def _grid_ratios(tracer, backends, engine, w, tasks, repeats=21,
                 min_sample_s=4e-3):
    """Median paired per-task ÷ backend time of each non-reference backend.

    ``backends`` maps names to backends, the per-task reference first.  Each
    repeat times every backend once, in a rotating order, and turns the
    reference's sample and each other backend's sample of the same repeat
    into one ratio; the median over repeats is robust to the machine's speed
    drift and to one-off stalls.  Every sample follows one untimed warm-up
    dispatch, so it does not pay for the previous backend's allocations and
    cache footprint, and the garbage collector is paused while timing.
    Samples are span-timed.
    """
    import gc

    names = list(backends)
    reference = names[0]
    backends[reference].run_tasks(engine, w, tasks)
    with tracer.span("grid_probe") as span:
        backends[reference].run_tasks(engine, w, tasks)
    calls = max(1, int(min_sample_s / max(span.duration, 1e-6)))
    ratios: dict[str, list[float]] = {name: [] for name in names[1:]}
    gc.disable()
    try:
        for r in range(repeats):
            sample = {}
            for name in names[r % len(names):] + names[:r % len(names)]:
                backends[name].run_tasks(engine, w, tasks)
                with tracer.span("grid_sample", backend=name) as span:
                    for _ in range(calls):
                        backends[name].run_tasks(engine, w, tasks)
                sample[name] = span.duration
            for name in ratios:
                ratios[name].append(sample[reference] / sample[name])
    finally:
        gc.enable()
    return {name: float(np.median(values)) for name, values in ratios.items()}


def test_dispatch_regime_grid(save_report, bench_trajectory):
    """Where stacking wins: the regime grid behind the default cost rule.

    For every cell of models × clients per group × batch rows, times one
    dispatch group on the per-task reference, on the always-stacking
    vectorized backend, and on the default serial backend (whose cost rule,
    :meth:`repro.exec.SerialBackend.stacks`, picks one of the two kernels).
    Records stacked ÷ per-task as context and gates default ÷ per-task with
    an absolute floor of :data:`GRID_FLOOR` in every cell; the count of cells
    the rule stacks is pinned as a counter, so changing the rule means
    re-deriving it from a fresh grid.  Every cell also checks the stacked
    kernel bit-identical to the per-task one at that size.
    """
    from repro.exec import STACK_BUDGET, VectorizedBackend
    from repro.obs import Tracer

    tracer = Tracer(None)
    reference, default = PerTaskBackend(), SerialBackend()
    backends = {"per-task": reference, "stacked": VectorizedBackend(),
                "default": default}
    metrics: dict[str, dict] = {}
    cells: dict[str, dict] = {}
    lines = [f"{'model':<15s} {'params':>7s} {'n':>3s} {'batch':>5s} "
             f"{'per-task ms':>11s} {'stacked':>8s} {'default':>8s}  rule"]
    stacked_cells = 0
    for model, (width, hidden) in GRID_MODELS.items():
        engine = (mlp(width, hidden, 10, rng=0) if hidden
                  else logistic_regression(width, 10, rng=0))
        w = engine.get_params()
        for batch in GRID_BATCH:
            for n in GRID_CLIENTS:
                tasks = _grid_tasks(engine, n, batch,
                                    np.random.default_rng(n * 10 + batch))
                ref = reference.run_tasks(engine, w, tasks)
                got = backends["stacked"].run_tasks(engine, w, tasks)
                assert all(np.array_equal(r.w_end, g.w_end)
                           for r, g in zip(ref, got)), (
                    f"stacked kernel diverged from per-task bits: {model} "
                    f"n={n} batch={batch}")
                per_task_s = _dispatch_seconds(tracer, reference, engine, w,
                                               tasks)
                ratios = _grid_ratios(tracer, backends, engine, w, tasks)
                stacks = default.stacks(engine, n)
                stacked_cells += stacks
                cell = f"{model}_n{n}_b{batch}"
                stacked, ratio = ratios["stacked"], ratios["default"]
                cells[cell] = {"params": engine.num_parameters,
                               "stacked": round(stacked, 3),
                               "default": round(ratio, 3),
                               "default_stacks": bool(stacks)}
                metrics[f"dispatch_default_{cell}"] = {
                    "value": ratio, "kind": "ratio", "floor": GRID_FLOOR}
                lines.append(
                    f"{model:<15s} {engine.num_parameters:7d} {n:3d} "
                    f"{batch:5d} {per_task_s * 1e3:11.3f} "
                    f"{stacked:7.2f}x {ratio:7.2f}x  "
                    f"{'stack' if stacks else 'per-task'}")
    tracer.close()
    metrics["dispatch_grid_stacked_cells"] = {"value": stacked_cells,
                                              "kind": "counter"}
    report = "\n".join(lines)
    save_report("dispatch_grid", {"steps": GRID_STEPS,
                                  "stack_budget": STACK_BUDGET,
                                  "floor": GRID_FLOOR, "cells": cells},
                report)
    bench_trajectory("substrate", metrics, context={
        "dispatch_grid_steps": GRID_STEPS,
        "dispatch_stack_budget": STACK_BUDGET,
        "dispatch_grid": cells})
    slow = {cell: c["default"] for cell, c in cells.items()
            if c["default"] < GRID_FLOOR}
    assert not slow, (
        f"default dispatch slower than per-task beyond noise in {slow}")
