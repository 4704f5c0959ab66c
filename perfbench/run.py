"""End-to-end benchmark of the HierMinimax reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3-roster --seed 1 --seconds 45 --trace 0

Workloads (each on the default serial backend; ``BENCHMARK.json`` records why
each was chosen and its worst-edge accuracy target):

* ``fig3-roster`` — the Fig. 3 convex preset (logistic, 10×3 edges, one class
  per edge) with all five algorithms at an equal, lowered slot budget, plus
  HierMinimax alone on more seeds for its accuracy-curve metrics.
* ``population-churn`` — HierMinimax over 20k virtual clients (200 edges ×
  100) with client churn, edge crash/recover with re-homing, client dropout,
  sharded checkpoints every 4 rounds and a final reload into a fresh
  algorithm.

The Fig. 4 preset at the paper's 784-300-100-10 MLP is not a workload: its
rounds to target vary by ~30% between seeds and one HierMinimax run of it
takes ~4 s, so a median steady enough to gate on needs more runs than the
run budget holds.

How a run measures.  This process imports neither numpy nor the program.  It
pins the environment (clears ``REPRO_BACKEND``, ``REPRO_WORKERS`` and
``REPRO_EXEC_TIMEOUT_S``, caps BLAS threads at ``nproc``) and starts
``worker.py`` once per *replicate*, each a fresh single-threaded process, so
``setup_s`` and ``peak_rss_mb`` are per-process numbers.  Replicate ``r`` uses
program seed ``100 * seed + r``; the replicate count is fixed per workload, so
every output is a pure function of ``--seed``.  How many rounds HierMinimax
needs to reach its target varies by ~25% between seeds, so ``fig3-roster``
adds one more process that runs HierMinimax alone on the next
``extra_hierminimax`` seeds, whose curves count only towards the
accuracy-curve metrics below.  The time left until
``--seconds`` is spent on set-up probes: fresh processes that stop right
before the first round, each one more ``setup_s`` sample.

With ``--trace 0`` the run prints the end-to-end metrics; timings are medians
over the replicates (``setup_s`` also over the probes).  The machine's speed
drifts by tens of percent over minutes, so every worker also times a fixed
~2 ms kernel (``worker.probe``) after each evaluation, outside the timed
region, and each of its timings is reported rescaled by
``REF_PROBE_S / mean probe time``: seconds at the speed at which the probe
takes ``REF_PROBE_S``.  The wall times and probe times are printed too.

The accuracy-curve metrics are taken over every HierMinimax run (curve) of
the run: ``final_*_accuracy`` is the mean over curves of the mean of the last
quarter of the evaluations.  Each curve's worst-edge accuracy crosses the
workload's target by the sustained rule of EXPERIMENTS.md (3 consecutive
evaluations at or above target), interpolated between evaluations;
``rounds_to_target`` (cloud rounds) and ``time_to_target_s`` (from the start
of ``run()`` to the logger event, rescaled by the probes taken during that
HierMinimax run) are medians over curves, which a single curve's late dip
cannot move the way it moves a mean curve.
``ok_fraction`` is the share of algorithm runs that completed and passed the
output checks (it stands in for a failed fraction, which would read 0).

With ``--trace 1`` the first ``TRACE_REPLICATES`` replicates (and no extra
HierMinimax runs) run twice each, untraced and then traced with
the timing wrappers of ``layers.py``, and the run prints the per-layer
metrics: medians over the traced replicates, ``core.round_ms`` percentiles
over all traced rounds pooled, and ``trace.overhead_ratio`` = traced ÷
untraced median rescaled ``train_s``; the per-layer times are wall seconds.

Output checks, on every replicate: finite model and losses, mixing weights
on the simplex, the final worst-edge accuracy of every HierMinimax run at or
above the workload's floor, and for ``population-churn`` a balanced churn ledger and a
reloaded checkpoint whose ``w``/``p`` equal the live ones.  Each replicate
hashes its final models, weights and histories into a digest; the traced and
untraced runs of a replicate must produce the same digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Per workload: replicate count, extra HierMinimax-only runs (one process),
#: HierMinimax worst-edge accuracy target (the time/rounds-to-target level) and
#: floor (checked on every curve), and how many algorithm runs one replicate
#: makes.
WORKLOADS = {
    "fig3-roster": {"replicates": 3, "extra_hierminimax": 13,
                    "target": 0.2, "floor": 0.1, "runs": 5},
    "population-churn": {"replicates": 6, "extra_hierminimax": 0,
                         "target": 0.5, "floor": 0.4, "runs": 1},
}
#: Replicates of a traced run, each run untraced and then traced.
TRACE_REPLICATES = 3
#: Set-up samples a run always takes, replicates included.
MIN_SETUP_SAMPLES = 5
MAX_SETUP_PROBES = 20
#: Every child must be done this long after the run started.
HARD_LIMIT_S = 170.0
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_EXEC_TIMEOUT_S")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
SUSTAIN_WINDOW = 3
TAIL_FRACTION = 0.25
#: Mean wall time of ``worker.probe`` on the 2-core machine the benchmark was
#: written on, in its usual state: the speed that reported timings refer to.
REF_PROBE_S = 0.0023


def pinned_env(root: Path) -> tuple[dict, int]:
    """The children's environment: no backend overrides, BLAS ≤ nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) < nproc
        env[var] = current if keep else str(nproc)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, args, root: Path, env: dict) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.root = root
        self.env = env
        self.started = time.monotonic()
        self.workdir = root / ".perfbench_work"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def spawn(self, replicate: int, *, trace: bool = False,
              setup_only: bool = False, hierminimax_runs: int = 0) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload,
               "--seed", str(100 * self.args.seed + replicate),
               "--workdir", str(self.workdir / f"r{replicate}")]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--hierminimax-runs", str(hierminimax_runs)] if hierminimax_runs else []
        timeout = max(5.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        spawned_at = time.monotonic()
        stderr = ""
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                                  cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=timeout)
            stderr = proc.stderr
            if proc.returncode != 0:
                raise RuntimeError(f"exit code {proc.returncode}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (OSError, RuntimeError, ValueError, IndexError,
                subprocess.TimeoutExpired) as exc:  # a lost child is a failed run
            self.errors.append(f"replicate {replicate}: {type(exc).__name__}: "
                               f"{exc} {stderr[-400:]}")
            if not setup_only:
                runs = hierminimax_runs or self.spec["runs"]
                self.attempted += runs
                self.failed += runs
            return None
        if not setup_only:
            self.attempted += report["attempted"]
            self.failed += report["failed"]
            self.errors += [f"replicate {replicate}: {e}" for e in report["errors"]]
            below = 0
            for curve in report["curves"]:
                final = tail_mean(curve["worst"]) if curve["worst"] else 0.0
                if final < self.spec["floor"]:
                    below += 1
                    self.errors.append(f"replicate {replicate}: final worst-edge "
                                       f"accuracy {final:.4f} below the floor "
                                       f"{self.spec['floor']}")
            # A run that already failed its own checks is not counted twice.
            self.failed += min(below, report["attempted"] - report["failed"])
        return report

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def at_reference_speed(measured: dict, seconds: float) -> float:
    """``seconds`` measured in a process (a report) or during one of its
    HierMinimax runs (a curve), rescaled with the probe time taken alongside
    to the speed at which the probe kernel takes ``REF_PROBE_S``."""
    return seconds * REF_PROBE_S / measured["probe_s"]


def tail_mean(values: list[float]) -> float:
    """Mean of the last ``TAIL_FRACTION`` of an evaluation series."""
    tail = max(1, round(len(values) * TAIL_FRACTION))
    return sum(values[-tail:]) / tail


def sustained_crossing(values: list[float], target: float) -> int | None:
    """Index of the first value that reaches ``target`` and holds it for
    ``SUSTAIN_WINDOW`` points (trailing points count if they stay above)."""
    above = [v >= target for v in values]
    for i in range(len(above)):
        end = min(len(above), i + SUSTAIN_WINDOW)
        if all(above[i:end]):
            return i
    return None


def crossing(curve: dict, target: float) -> tuple[float, float]:
    """Cloud rounds and seconds from the start of ``run()`` until the
    worst-edge accuracy reaches ``target`` under the sustained rule, linearly
    interpolated between the last evaluation below the target and the
    crossing one so that the result is not quantized to the evaluation
    period; ``(inf, inf)`` if it never does."""
    worst, rounds, t = curve["worst"], curve["rounds"], curve["t"]
    hit = sustained_crossing(worst, target)
    if hit is None:
        return math.inf, math.inf
    if hit == 0:
        return rounds[0] + 1, t[0]
    # worst[hit - 1] < target, or hit - 1 would be the sustained crossing.
    frac = (target - worst[hit - 1]) / (worst[hit] - worst[hit - 1])
    return (rounds[hit - 1] + 1 + frac * (rounds[hit] - rounds[hit - 1]),
            t[hit - 1] + frac * (t[hit] - t[hit - 1]))


def end_to_end(runner: Runner, reports: list[dict], setup: list[dict],
               extra: list[dict]) -> dict:
    """End-to-end metrics from the replicate reports, set-up probes and
    extra HierMinimax-only reports."""
    target = runner.spec["target"]
    curves = [c for r in reports + extra for c in r["curves"]]
    hits = [crossing(c, target) for c in curves]
    rounds_to_target = statistics.median(rounds for rounds, _ in hits)
    if math.isinf(rounds_to_target):
        runner.errors.append(f"the worst-edge accuracy of most HierMinimax runs "
                             f"never reached the target {target}")
        return {}
    train = [at_reference_speed(r, r["train_s"]) for r in reports]
    runner.notes.append("replicate wall train_s: "
                        + " ".join(f"{r['train_s']:.3f}" for r in reports)
                        + "  probe ms: "
                        + " ".join(f"{1e3 * r['probe_s']:.3f}" for r in reports))
    runner.notes.append("HierMinimax rounds to target: "
                        + " ".join(f"{rounds:.2f}" for rounds, _ in hits))
    return {
        "setup_s": statistics.median(at_reference_speed(r, r["setup_s"]) for r in setup),
        "train_s": statistics.median(train),
        "client_steps_per_s": statistics.median(
            r["client_steps"] / t for r, t in zip(reports, train)),
        "time_to_target_s": statistics.median(
            at_reference_speed(c, seconds) for c, (_, seconds) in zip(curves, hits)),
        "rounds_to_target": rounds_to_target,
        "edge_cloud_mb": statistics.median(r["edge_cloud_mb"] for r in reports),
        "final_worst_accuracy": statistics.mean(
            tail_mean(c["worst"]) for c in curves),
        "final_average_accuracy": statistics.mean(
            tail_mean(c["average"]) for c in curves),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "ok_fraction": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced replicates."""
    def med(fn) -> float:
        return statistics.median(fn(r) for r in traced)

    def busy(key: str):
        return lambda r: r["layers"]["stats"][key]["busy_s"]

    def self_s(key: str):
        return lambda r: r["layers"]["stats"][key]["self_s"]

    def calls(key: str):
        return lambda r: r["layers"]["stats"][key]["calls"]

    def count(key: str):
        return lambda r: r["layers"]["counts"].get(key, 0.0)

    rounds = sorted(ms for r in traced for ms in r["layers"]["round_ms"])
    trained = count("population.trained")
    return {
        "data.generate_s": med(busy("data.generate")),
        "nn.loss_and_gradient.calls": med(calls("nn.loss_and_gradient")),
        "nn.loss_and_gradient.busy_s": med(busy("nn.loss_and_gradient")),
        "nn.gemm_gflop": med(lambda r: count("nn.gemm_flop")(r) / 1e9),
        "nn.eval.busy_s": med(busy("nn.eval")),
        "exec.run_tasks.calls": med(calls("exec.run_tasks")),
        "exec.run_tasks.busy_s": med(busy("exec.run_tasks")),
        "exec.run_tasks.self_s": med(self_s("exec.run_tasks")),
        "exec.tasks": med(count("exec.tasks")),
        "exec.tasks_per_dispatch": med(
            lambda r: count("exec.tasks")(r) / max(1, calls("exec.run_tasks")(r))),
        "sim.model_update.calls": med(calls("sim.model_update")),
        "sim.model_update.self_s": med(self_s("sim.model_update")),
        "sim.estimate_loss.busy_s": med(busy("sim.estimate_loss")),
        "sim.cloud_update.busy_s": med(busy("sim.cloud_update")),
        "core.round.calls": med(calls("core.round")),
        "core.round.self_s": med(self_s("core.round")),
        "core.round_ms.p50": statistics.median(rounds),
        "core.round_ms.p99": statistics.quantiles(rounds, n=100,
                                                  method="inclusive")[98],
        "core.round_ms.samples": len(rounds),
        "metrics.evaluate.calls": med(calls("metrics.evaluate")),
        "metrics.evaluate.busy_s": med(busy("metrics.evaluate")),
        "topology.edge_cloud_cycles": med(lambda r: r["edge_cloud_cycles"]),
        "topology.client_edge_mb": med(lambda r: r["client_edge_mb"]),
        "population.client.calls": med(calls("population.client")),
        "population.client.busy_s": med(busy("population.client")),
        "population.end_round.busy_s": med(busy("population.end_round")),
        "population.save_shards_s": med(busy("population.save_shards")),
        "population.materialized_per_trained": med(
            lambda r: r["extra"].get("materialized", 0) / trained(r)
            if trained(r) else 0.0),
        "membership.begin_round.busy_s": med(busy("membership.begin_round")),
        "membership.roster.calls": med(calls("membership.roster")),
        "membership.roster.busy_s": med(busy("membership.roster")),
        "faults.receive.calls": med(calls("faults.receive")),
        "faults.receive.busy_s": med(busy("faults.receive")),
        "faults.checkpoint.save_s": med(busy("faults.checkpoint.save")),
        "faults.checkpoint.load_s": med(busy("faults.checkpoint.load")),
        "faults.checkpoint.bytes": med(count("faults.checkpoint.bytes")),
        "trace.overhead_ratio": (
            statistics.median(at_reference_speed(r, r["train_s"]) for r in traced)
            / statistics.median(at_reference_speed(r, r["train_s"]) for r in untraced)),
        "trace.uncovered_fraction": med(
            lambda r: (r["train_s"] - r["covered_s"]) / r["train_s"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the HierMinimax reproduction.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # A terminated run raises SystemExit inside subprocess.run, which kills
    # and reaps the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under ./src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    env, nproc = pinned_env(root)
    runner = Runner(args, root, env)
    replicates = range(runner.spec["replicates"])
    try:
        if args.trace:
            untraced, traced = [], []
            for r in range(TRACE_REPLICATES):
                plain, timed = runner.spawn(r), runner.spawn(r, trace=True)
                if plain is None or timed is None:
                    continue
                if plain["digest"] != timed["digest"]:
                    runner.errors.append(f"replicate {r}: traced digest differs")
                untraced.append(plain)
                traced.append(timed)
            values = per_layer(traced, untraced) if traced else {}
            reports = traced
        else:
            reports = [rep for rep in (runner.spawn(r) for r in replicates)
                       if rep is not None]
            extra = []
            if runner.spec["extra_hierminimax"]:
                rep = runner.spawn(len(replicates),
                                   hierminimax_runs=runner.spec["extra_hierminimax"])
                extra = [rep] if rep is not None else []
            setup = list(reports)
            probe_s = 0.0
            for probe in range(MAX_SETUP_PROBES):
                if (len(setup) >= MIN_SETUP_SAMPLES
                        and runner.elapsed() + probe_s > args.seconds):
                    break
                before = runner.elapsed()
                rep = runner.spawn(probe % len(replicates), setup_only=True)
                probe_s = runner.elapsed() - before
                if rep is not None:
                    setup.append(rep)
            values = end_to_end(runner, reports, setup, extra) if reports else {}
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        runner.errors.append(f"metrics not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    correct = not runner.errors and runner.failed == 0
    env_facts = reports[0]["env"] if reports else {}
    env_facts.update(nproc=nproc, blas_threads=env["OPENBLAS_NUM_THREADS"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {nproc}")
    print("environment " + json.dumps(env_facts, sort_keys=True))
    for rep in reports:
        print(f"digest {rep['digest']}")
    for note in runner.notes:
        print(note)
    for error in runner.errors:
        print(f"FAILED {error}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(1, runner.attempted),
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
