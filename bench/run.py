"""Benchmark harness for loadbal.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the workload's inputs from the
seed, repeats the workload's operation for S seconds of measured time,
checks every output outside the timed region, prints a readable report
and, as the last line of standard output, one JSON object::

    {"correct": true, "attempted": 44, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, reports the per-layer metrics and the
tracing overhead, and writes every span to ``.bench_out/``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("solve-loaddep", "sweep-constant", "check-small", "simulate-policies")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
POLICIES = ("static_optimal", "no_balancing", "sq", "med", "dynamic_threshold")
PER_LAYER_UNITS = {
    "solver.outer_probes": "count",
    "solver.alpha_probes": "count",
    "solver.partition_sweeps": "count",
    "solver.sweep_us": "us",
    "solver.solve_ms": "ms",
    "solver.sweep_share": "share",
    "solver.verify_ms": "ms",
    "solver.kkt_worst": "ratio",
    "solver.override_share": "share",
    "delays.node_evals": "count",
    "network.build_ms": "ms",
    "network.objective_ms": "ms",
    "network.objective_calls": "count",
    "flows.synthesize_ms": "ms",
    "config.parse_ms": "ms",
    "cli.overhead_share": "share",
    "oracle.rows_per_s": "1/s",
    "oracle.gap_max": "ratio",
    **{f"sim.{p}.jobs_per_s": "1/s" for p in POLICIES},
    **{f"sim.{p}.transfer_share": "share" for p in POLICIES},
    "sim.static_optimal.rel_err": "ratio",
    "trace.overhead_share": "share",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


@dataclass
class Pass:
    """The operations of one timed pass and the time they took."""

    ops: list
    measured: float

    @property
    def items_per_s(self) -> float:
        return sum(op.ok_items for op in self.ops) / self.measured

    def latencies_ms(self) -> list[float]:
        return sorted(1e3 * op.latency for op in self.ops)

    @property
    def op_ms_p50(self) -> float:
        return statistics.median(self.latencies_ms())

    @property
    def op_ms_tail(self) -> float:
        return self.tail()[0]

    def tail(self) -> tuple[float, float, int]:
        """Highest percentile with at least 10 samples beyond it: (value, percentile, samples)."""
        lat = self.latencies_ms()
        n = len(lat)
        if n <= 10:
            return lat[-1], 100.0, n
        return lat[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, state, api, seconds: float, verdicts, check_now: bool) -> Pass:
    """Closed loop: run operations back to back until ``seconds`` of them are timed.

    The pass ends on a whole cycle over the workload's instance pool, so
    every instance weighs the same in the throughput.  Checks run between
    operations, outside the timed region, or after the pass when
    ``check_now`` is false (the caller then calls :func:`check_all`).
    """
    run_op = api.wrap("op", workload.op)  # the root span each operation's spans share
    ops = []
    measured = 0.0
    k = 0
    while measured < seconds or k % workload.cycle:
        start = time.perf_counter()
        op = run_op(state, k, api)
        op.latency = time.perf_counter() - start
        measured += op.latency
        ops.append(op)
        if check_now:
            check_all(workload, state, [op], verdicts)
        k += 1
    return Pass(ops, measured)


def check_all(workload, state, ops, verdicts) -> None:
    for op in ops:
        workload.check(state, op, verdicts)
        op.out = None


def import_program():
    """Import the benchmark modules and loadbal from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "loadbal" / "__init__.py").is_file():
        raise BenchError(f"no loadbal sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import loadbal
    import tracing
    import workloads
    if Path(loadbal.__file__).resolve().parent != (src / "loadbal").resolve():
        raise BenchError(f"imported loadbal from {loadbal.__file__}, not from {src}")
    return tracing, workloads


def per_layer(tr, verdicts, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass, and of the checks of both passes.

    Counts, rates and shares read 0 for layers the workload never calls;
    every time-valued metric is measured on every workload.
    """
    def mean_ms(name):
        found = tr.named(name)
        return 1e3 * sum(tr.duration(s) for s in found) / len(found) if found else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    solves = tr.named("solver.solve")
    moved = tr.moved(solves)
    solve_self_s = tr.self_times().get("solver.solve", {}).get("self_s", 0.0)
    iterations = [s["iterations"] for s in solves if "iterations" in s]

    cli_calls = {i for i, s in enumerate(tr.spans) if s["name"] == "cli.main"}
    cli_total = sum(tr.duration(tr.spans[i]) for i in cli_calls)
    inside_cli = sum(tr.duration(s) for s in tr.spans
                     if s["name"] in ("solver.solve", "config.parse") and s["parent"] in cli_calls)

    oracle = tr.named("oracle.search")
    metrics = {
        "solver.outer_probes": ratio(sum(iterations), len(iterations)),
        "solver.alpha_probes": ratio(moved["residual.calls"], len(solves)),
        "solver.partition_sweeps": ratio(moved["partition.calls"], len(solves)),
        "solver.sweep_us": 1e6 * ratio(moved["partition.s"], moved["partition.calls"]),
        "solver.solve_ms": 1e3 * ratio(solve_self_s, len(solves)),
        "solver.sweep_share": ratio(moved["partition.s"], solve_self_s),
        "solver.verify_ms": 1e3 * ratio(verdicts.verify_s, verdicts.solutions),
        "solver.kkt_worst": verdicts.kkt_worst,
        "solver.override_share": ratio(verdicts.overrides, verdicts.solutions),
        "delays.node_evals": ratio(moved["delays.calls"], len(solves)),
        "network.build_ms": mean_ms("network.build"),
        "network.objective_ms": 1e3 * ratio(moved["objective.s"], moved["objective.calls"]),
        "network.objective_calls": ratio(moved["objective.calls"], len(solves)),
        "flows.synthesize_ms": 1e3 * ratio(verdicts.synthesize_s, verdicts.solutions),
        "config.parse_ms": mean_ms("config.parse"),
        "cli.overhead_share": ratio(cli_total - inside_cli, cli_total),
        "oracle.rows_per_s": ratio(sum(s["rows"] for s in oracle if "rows" in s),
                                   sum(tr.duration(s) for s in oracle)),
        "oracle.gap_max": verdicts.gap_max if math.isfinite(verdicts.gap_max) else 0.0,
        "sim.static_optimal.rel_err": verdicts.sim_rel_err,
        "trace.overhead_share": overhead_share,
    }
    for policy in POLICIES:
        runs = [s for s in tr.named(f"sim.{policy}") if "jobs" in s]
        metrics[f"sim.{policy}.jobs_per_s"] = ratio(sum(s["jobs"] for s in runs),
                                                    sum(tr.duration(s) for s in runs))
        metrics[f"sim.{policy}.transfer_share"] = ratio(sum(s["transfers"] for s in runs),
                                                        sum(s["measured"] for s in runs))
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def _end_to_end(workload, state, api, seconds, verdicts, setup_s, import_s):
    timed = measure(workload, state, api, seconds, verdicts, check_now=True)
    workload.finish(state, verdicts)
    tail, pct, samples = timed.tail()
    metrics = {
        "setup_s": setup_s,
        "op_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups",
        "op_ms_tail": f"p{pct:.1f}, {samples} samples",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  measured {timed.measured:.3f} s over {len(timed.ops)} operations"]
    lines += [_fmt(k, v, END_TO_END_UNITS[k], notes.get(k, "")) for k, v in metrics.items()]
    lines.append(_fmt("items_per_s", timed.items_per_s, "1/s", f"({workload.item}; not in the result object)"))
    lines.append(_fmt("op_ms_p50", timed.op_ms_p50, "ms", "(not in the result object)"))
    lines += [_fmt(k, v, u, "(named metric of this workload)") for k, v, u in workload.named_metrics(timed)]
    return metrics, lines


def _per_layer_run(tracing, workloads, workload, state, seed, seconds, verdicts, workdir, name):
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    untraced = measure(workload, state, workloads.Api(tracing.Tracer(enabled=False)), seconds / 2,
                       verdicts, check_now=True)
    tracer = tracing.Tracer(enabled=True)
    api = workloads.Api(tracer)
    tracer.install(api)
    try:
        traced_state = api.wrap("setup", workload.setup)(seed, api, workdir)
        traced = measure(workload, traced_state, api, seconds / 2, verdicts, check_now=False)
    finally:
        tracer.uninstall()
    check_all(workload, traced_state, traced.ops, verdicts)
    workload.finish(state, verdicts)
    workload.finish(traced_state, verdicts)
    overhead = untraced.items_per_s / traced.items_per_s - 1.0 if traced.items_per_s else 0.0
    metrics = per_layer(tracer, verdicts, overhead)
    trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write(trace_file, {"workload": name, "seed": seed,
                              "untraced_items_per_s": untraced.items_per_s,
                              "traced_items_per_s": traced.items_per_s})
    lines = [f"  untraced {untraced.measured:.3f} s / {len(untraced.ops)} ops, "
             f"traced {traced.measured:.3f} s / {len(traced.ops)} ops; spans in {trace_file.name}",
             "  self time by span (traced pass):"]
    for span, row in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {span:<24} calls {row['calls']:>7}  total {1e3 * row['total_s']:>11.3f} ms"
                     f"  self {1e3 * row['self_s']:>11.3f} ms")
    lines += [_fmt(k, v, PER_LAYER_UNITS[k]) for k, v in metrics.items()]
    return metrics, lines


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[list[str], dict]:
    """One benchmark run; returns the report lines and the result object."""
    start = time.perf_counter()
    tracing, workloads = import_program()
    import_s = time.perf_counter() - start

    workload = workloads.WORKLOADS[workload_name](tiny)
    verdicts = workloads.Verdicts()
    plain = workloads.Api(tracing.Tracer(enabled=False))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    lines = [f"workload {workload_name}  seed {seed}  {'traced' if trace else 'untraced'}"
             f"  unit of work: {workload.item}"]
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(seed, plain, workdir)
            setup_times.append(time.perf_counter() - t0)
        if trace:
            metrics, more = _per_layer_run(tracing, workloads, workload, state, seed, seconds,
                                           verdicts, workdir, workload_name)
            units = PER_LAYER_UNITS
        else:
            metrics, more = _end_to_end(workload, state, plain, seconds, verdicts,
                                        import_s + statistics.median(setup_times), import_s)
            units = END_TO_END_UNITS
        lines += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = "PASS" if verdicts.failed == 0 else "FAIL"
    lines.append(f"  fail_ratio {verdicts.failed}/{verdicts.attempted} = "
                 f"{verdicts.failed / verdicts.attempted:.6g}")
    lines.append(f"  correctness {verdict}: {verdicts.attempted} outputs checked, {verdicts.failed} failed; "
                 f"kkt worst {verdicts.kkt_worst:.3g} over {verdicts.solutions} solutions, "
                 f"{verdicts.overrides} certified by the no-transfer comparison")
    lines += [f"  failure: {what}" for what in verdicts.failures]
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
