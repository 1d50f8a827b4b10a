"""churnskip benchmark: host time of whole simulations, checked for correctness.

    python3 perfbench/run.py --workload steady-1024 --seed 100 --seconds 30 --trace 0

Runs one workload through the public API (`Simulation`, `bootstrap_all`,
`run_cycle`, `finalize`) in this single process, repeating the same
simulation until `--seconds` have passed (at least MIN_REPS times).
`--seed` is the adversary seed, which makes the inputs: the churn schedule
and the queries, or only the queries for a workload that fixes its churn
schedule (`Workload.churn_seed`). `--seed-alg` is the algorithm's own
coin seed, a setting of the program (default 500). `--seed 100` is the
adv=100 / alg=500 pair of the frozen baselines. Times are CPU seconds of
this process, scaled by a reference loop sampled between the timed cycles
to the seconds of a host of fixed speed (see hostprobe.py). `--trace 1`
alternates untraced and traced repetitions and prints per-module figures
instead (see tracer.py and README.md).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline.json"

if not (SRC / "churnskip" / "__init__.py").is_file():
    sys.exit(f"perfbench: no churnskip sources at {SRC}")
sys.path.insert(0, str(SRC))

from churnskip import SimParams, Simulation, maintenance, metrics  # noqa: E402
from churnskip.errors import ChurnSkipError  # noqa: E402
from churnskip.phase_update import live_equals_clean  # noqa: E402

import hostprobe  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED_ALG = 500
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    churn_rate: int
    query_density: float
    cycles: int
    churn_seed: int | None = None   # fixed adversary seed of the churn schedule

    def params(self, seed: int, seed_alg: int) -> SimParams:
        return SimParams(n=self.n, seed_alg=seed_alg,
                         seed_adv=seed if self.churn_seed is None else self.churn_seed,
                         strategy="uniform_random", churn_rate=self.churn_rate,
                         horizon_cycles=self.cycles,
                         query_density=self.query_density)

    def simulation(self, seed: int, seed_alg: int) -> Simulation:
        """The simulation whose inputs `seed` makes: churn schedule and queries,
        or only the queries when the workload fixes its churn schedule."""
        params = self.params(seed, seed_alg)
        if self.churn_seed is None:
            return Simulation(params)
        schedule = Simulation(params.with_overrides(query_density=0.0)).schedule
        # looked up on maintenance, where the traced run wraps it
        queries = maintenance.gen_queries(seed, schedule, self.query_density)
        return Simulation(params, schedule, queries)


# Why each exists is in README.md; all use uniform_random churn.
WORKLOADS = {w.name: w for w in (
    Workload("steady-1024", n=1024, churn_rate=1, query_density=0.0006, cycles=50),
    Workload("reads-16384", n=16384, churn_rate=8, query_density=0.0006, cycles=4,
             churn_seed=100),
    Workload("writes-8192", n=8192, churn_rate=8, query_density=0.0, cycles=10),
)}


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank; exact for integer data, 0 if empty."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Rep:
    """One simulation: its timings, its outcome and its checks."""

    setup_s: float = 0.0
    run_s: float = 0.0
    cycle_s: list[float] = field(default_factory=list)
    finalize_s: float = 0.0
    rounds: int = 0                 # maintenance rounds simulated by run_s
    audit_s: float = 0.0
    ops: int = 0
    failed: int = 0
    failure_kinds: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    identity: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    host: hostprobe.Sampler | None = None   # reference-loop samples, untraced only

    def nominal(self, seconds: float) -> float:
        """`seconds` of this repetition in seconds of the nominal host."""
        return seconds * self.host.scale()


def run_rep(workload: Workload, seed: int, seed_alg: int = SEED_ALG,
            tracer: Tracer | None = None) -> Rep:
    params = workload.params(seed, seed_alg)
    rep = Rep()
    host = None
    if tracer is None:
        host = rep.host = hostprobe.Sampler()
        host.sample()
    gc.collect()  # every repetition starts from the same collector state
    sim = None
    liveness: list[float] = []
    overruns = 0
    if tracer is not None:
        tracer.stage = "setup"
    try:
        start = time.process_time()
        sim = workload.simulation(seed, seed_alg)
        sim.bootstrap_all()
        rep.setup_s = time.process_time() - start
        if host is not None:
            host.sample()
        first_round = sim.world.round
        if tracer is not None:
            tracer.stage = "run"
        for _ in range(params.horizon_cycles):
            start = time.process_time()
            summary = sim.run_cycle()
            rep.cycle_s.append(time.process_time() - start)
            alive = sim.world.alive
            liveness.append(len(sim.clean.live & alive) / max(1, len(alive)))
            overruns += summary.end_round - summary.start_round > params.cycle_budget
            if host is not None:
                host.after(rep.cycle_s[-1])
        start = time.process_time()
        sim.finalize()
        rep.finalize_s = time.process_time() - start
        rep.run_s = sum(rep.cycle_s) + rep.finalize_s
        rep.rounds = sim.world.round - first_round
    except ChurnSkipError as exc:
        rep.failure_kinds[type(exc).__name__] += 1
        rep.problems.append(f"raised {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.stage = "audit"
    if sim is None or sim.overlay is None:
        rep.ops = rep.failed = params.horizon_cycles
        return rep

    start = time.process_time()
    trace_sha = hashlib.sha256("\n".join(sim.world.trace_lines()).encode()).hexdigest()
    violations = sim.query_violations()
    metrics.cycle_windows(sim)
    ledger_ok = metrics.ledger_complete(sim)
    rep.audit_s = time.process_time() - start

    rep.failure_kinds.update(f.kind for f in sim.world.failures)
    checks = {
        "world.failures is empty": not sim.world.failures,
        "query_violations() is empty": not violations,
        "ledger_complete": ledger_ok,
        "clean.validate().ok": sim.clean.validate().ok,
        "live_equals_clean": live_equals_clean(sim.clean),
    }
    rep.problems += [f"check failed: {name}" for name, ok in checks.items() if not ok]
    never_run = params.horizon_cycles - len(sim.cycles)
    rep.ops = len(sim.query_log) + params.horizon_cycles
    rep.failed = (len(violations) + never_run
                  + sum(1 for c in sim.cycles if c.failures))

    latencies = [q.latency for q in sim.query_log]
    totals = sim.world.ledger.totals()
    rep.identity = {
        "trace_sha256": trace_sha,
        "rounds": sim.world.round,
        "messages": totals["messages_sent"],
        "edges": totals["edges_formed"] + totals["edges_deleted"],
        "query_latency_p50": nearest_rank(latencies, 0.5),
        "query_latency_p99": nearest_rank(latencies, 0.99),
    }
    records = sim.phase_records
    run_rows = sim.world.ledger.rows[sim.world.round - rep.rounds:]

    def total(phase, key):
        return sum(r[key] for r in records if r["phase"] == phase)

    rep.outcome = {
        "joiners": total("buffer", "joiners"),
        "reds": total("delete", "reds_removed"),
        "groups": total("merge", "groups"),
        "splits": total("merge", "splits"),
        "labels_flipped": total("update", "labels_flipped"),
        "ledger_rounds": len(run_rows),
        "ledger_messages": sum(r.messages_sent for r in run_rows),
        "ledger_edges": sum(r.edges_formed + r.edges_deleted for r in run_rows),
        "liveness_min": min(liveness, default=0.0),
        "cycle_overruns": overruns,
    }
    return rep


def layer_metrics(tracer: Tracer, rep: Rep) -> dict[str, tuple[float, str]]:
    """Per-module figures of one traced repetition, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def span(name, calls=False):
        if calls:
            out[f"{name}.calls"] = (tracer.calls[("run", name)], "count")
        out[f"{name}.s"] = (tracer.seconds("run", name), "s")

    def played(module, category, rounds=True):
        if rounds:
            out[f"{module}.sim_rounds"] = (tracer.played[(category, "rounds")], "rounds")
        out[f"{module}.sim_messages"] = (tracer.played[(category, "messages")], "messages")
        out[f"{module}.sim_edges"] = (tracer.played[(category, "edges")], "edges")

    search_us = [ns / 1e3 for ns in tracer.search_ns]
    span("skiplist.search", calls=True)
    out["skiplist.search.us_p50"] = (nearest_rank(search_us, 0.5), "us")
    out["skiplist.search.us_p99"] = (nearest_rank(search_us, 0.99), "us")
    out["skiplist.search.path_rounds"] = (tracer.search_path_rounds, "rounds")

    for name in ("phase_buffer.create_buffer", "phase_buffer.build_sorting_overlay",
                 "phase_buffer.run_network_sort", "phase_buffer.raise_levels"):
        span(name)
    out["phase_buffer.joiners"] = (rep.outcome["joiners"], "count")
    played("phase_buffer", "buffer")

    span("phase_merge.init")
    span("phase_merge.preprocess")
    span("phase_merge.step", calls=True)
    out["phase_merge.groups"] = (rep.outcome["groups"], "count")
    out["phase_merge.splits"] = (rep.outcome["splits"], "count")
    played("phase_merge", "merge")

    span("phase_delete.delete_phase", calls=True)
    out["phase_delete.reds"] = (rep.outcome["reds"], "count")
    played("phase_delete", "delete")

    span("phase_update.update_phase")
    span("phase_update.live_equals_clean")
    out["phase_update.labels_flipped"] = (rep.outcome["labels_flipped"], "count")

    span("overlay.maintenance_tick", calls=True)
    span("overlay.cover_node", calls=True)
    span("overlay.route_hops", calls=True)
    out["overlay.bootstrap_overlay.s"] = (
        tracer.seconds("setup", "overlay.bootstrap_overlay"), "s")

    span("simcore.run_round", calls=True)
    span("simcore.play_row", calls=True)
    out["simcore.ledger.rounds"] = (rep.outcome["ledger_rounds"], "rounds")
    out["simcore.ledger.messages"] = (rep.outcome["ledger_messages"], "messages")
    out["simcore.ledger.edges"] = (rep.outcome["ledger_edges"], "edges")

    for name in ("adversary.gen_schedule", "adversary.gen_queries",
                 "maintenance.init", "maintenance.bootstrap_all"):
        out[f"{name}.s"] = (tracer.seconds("setup", name), "s")
    span("maintenance.run_cycle")
    span("maintenance.finalize")
    span("maintenance.serve_query", calls=True)
    span("maintenance.churn_hooks", calls=True)
    out["maintenance.liveness_min"] = (rep.outcome["liveness_min"], "ratio")
    out["maintenance.cycle_overruns"] = (rep.outcome["cycle_overruns"], "count")
    out["maintenance.query_latency_rounds_p50"] = (rep.identity["query_latency_p50"], "rounds")
    out["maintenance.query_latency_rounds_p99"] = (rep.identity["query_latency_p99"], "rounds")

    for module in ("phase_buffer", "simcore", "phase_update"):
        out[f"setup.{module}.s"] = (tracer.stage_seconds("setup", module + "."), "s")
    out["trace.setup_s"] = (rep.setup_s, "s")
    accounted = tracer.stage_seconds("run") / rep.run_s if rep.run_s else 0.0
    out["trace.accounted_share"] = (accounted, "ratio")
    return out


def fastest_run_s(reps: list[Rep]) -> float:
    """Each cycle's fastest time over the repetitions, summed, plus the
    fastest finalize: the traced run's least disturbed time, used only to
    compare traced and untraced repetitions of one process."""
    per_cycle = zip(*(rep.cycle_s for rep in reps))
    return (sum(min(times) for times in per_cycle)
            + min(rep.finalize_s for rep in reps))


def median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples),
                   "unit": unit}
            for name, (_, unit) in samples[0].items()}


def baseline_verdict(workload: str, seeds: str, identity: dict) -> str:
    frozen = json.loads(BASELINE.read_text()).get(workload, {}).get(seeds)
    if frozen is None:
        return f"behaviour: no frozen baseline for {workload} at seeds {seeds}"
    moved = [f"{k} {frozen[k]} -> {identity.get(k)}" for k in frozen
             if identity.get(k) != frozen[k]]
    if moved:
        return "behaviour changed vs baseline: " + "; ".join(moved)
    return "behaviour: matches frozen baseline"


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            seed_alg: int = SEED_ALG) -> dict:
    seeds = f"{seed}/{seed_alg}"
    plain: list[Rep] = []
    traced: list[tuple[Tracer, Rep]] = []
    deadline = time.perf_counter() + seconds
    min_reps = 1 if trace else MIN_REPS
    while len(plain) < min_reps or time.perf_counter() < deadline:
        plain.append(run_rep(workload, seed, seed_alg))
        if trace:
            tracer = Tracer()
            with tracer.patched():
                traced.append((tracer, run_rep(workload, seed, seed_alg, tracer)))

    reps = plain + [rep for _, rep in traced]
    problems = sorted({p for rep in reps for p in rep.problems})
    if any(rep.identity != plain[0].identity for rep in reps):
        problems.append("repetitions of one seed disagree on the behaviour identity")
    kinds = sum((rep.failure_kinds for rep in reps), Counter())
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not problems

    print(f"workload {workload.name}: n={workload.n} churn_rate={workload.churn_rate} "
          f"query_density={workload.query_density} cycles={workload.cycles} "
          f"churn_seed={seed if workload.churn_seed is None else workload.churn_seed} "
          f"query_seed={seed} "
          f"seed_alg={seed_alg}; "
          f"{len(plain)} untraced + {len(traced)} traced repetitions")
    print(f"  ops_failed_share {failed / attempted:.6f} share "
          f"({failed} failed of {attempted} ops; failure kinds {dict(kinds) or 'none'})")
    print("  " + baseline_verdict(workload.name, seeds, plain[0].identity))
    print("  identity " + json.dumps({"workload": workload.name, "seeds": seeds,
                                      **plain[0].identity}, sort_keys=True))
    for label, group in (("untraced", plain), ("traced", [rep for _, rep in traced])):
        if group:
            print(f"  {label} repetitions, measured setup_s/run_s: "
                  + " ".join(f"{rep.setup_s:.3f}/{rep.run_s:.3f}" for rep in group))
    if not trace:
        print("  reference loop, mean ms per repetition (nominal "
              f"{hostprobe.NOMINAL_S * 1e3:.0f}): "
              + " ".join(f"{statistics.fmean(rep.host.samples) * 1e3:.1f}"
                         for rep in plain))
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if trace:
        result = median_metrics([layer_metrics(t, rep) for t, rep in traced])
        traced_run_s = fastest_run_s([rep for _, rep in traced])
        result["trace.run_s"] = {"value": traced_run_s, "unit": "s"}
        result["trace.overhead_s"] = {
            "value": traced_run_s - fastest_run_s(plain), "unit": "s"}
        result["maintenance.cycle_s_p50"] = {
            "value": statistics.median(s for rep in plain for s in rep.cycle_s),
            "unit": "s"}
        result["metrics.audit.s"] = {
            "value": statistics.median(rep.audit_s for rep in plain), "unit": "s"}
    else:
        # the mean: each repetition's scaled time estimates the same figure
        run_s = statistics.fmean(rep.nominal(rep.run_s) for rep in plain)
        result = {
            "setup_s": {"value": statistics.median(rep.nominal(rep.setup_s)
                                                   for rep in plain),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "rounds_per_s": {"value": plain[0].rounds / run_s if run_s else 0.0,
                             "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    for name, m in result.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=100,
                        help="adversary seed: churn schedule and queries")
    parser.add_argument("--seed-alg", type=int, default=SEED_ALG,
                        help="the algorithm's coin seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.seed_alg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
