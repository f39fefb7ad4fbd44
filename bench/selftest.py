"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each result object names exactly the metrics and units BENCHMARK.json
lists; that the instance generator is deterministic for a seed and has
the properties the workloads rely on; and that the harness refuses to
run, without printing a result, when the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_generator() -> None:
    import instances

    makers = {
        "loaddep_pool": lambda seed: instances.loaddep_pool(seed, 30, 2),
        "sweep_scenario": lambda seed: instances.sweep_scenario(seed, 30),
        "small_pool": lambda seed: instances.small_pool(seed, 4),
        "sim_scenario": lambda seed: instances.sim_scenario(seed, 30),
    }
    for name, make in makers.items():
        assert make(7) == make(7), f"{name}: the same seed gave different instances"
        assert make(7) != make(8), f"{name}: two seeds gave the same instances"

    nodes = instances.loaddep_pool(3, 200, 1)[0]["nodes"]
    mu = [nd["service_rate"] for nd in nodes]
    rho = [nd["arrival_rate"] / nd["service_rate"] for nd in nodes]
    assert max(mu) / min(mu) >= 1e3, "service rates must span three decades"
    assert min(rho) == 0.0, "some nodes must have no arrivals"
    assert max(rho) >= 0.95, "some nodes must be nearly saturated"


def check_sweep_crosses() -> None:
    """Each sweep range starts with transfers and ends certified by the no-transfer comparison."""
    import instances
    import loadbal as lb

    for scenario, stop in (instances.sweep_scenario(seed, 40) for seed in (5, 6)):
        low, high = (dict(scenario, comm={"model": "constant", "params": {"t": t}}) for t in (0.0, stop))
        assert lb.solve(lb.parse_config(low).network).allocation.transfer_rate > 0
        assert lb.solve(lb.parse_config(high).network).no_transfer_override


def check_workloads() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run.run(name, seed=1, seconds=0.05, trace=trace, tiny=True)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, "\n".join(lines)
            assert result["attempted"] >= 1
            units = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(units)}"
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), metric
            json.dumps(result, allow_nan=False)
            print(f"ok  {name:<18} trace={int(trace)}  {len(got)} metrics, "
                  f"{result['attempted']} outputs checked")


def check_needs_sources() -> None:
    """In a directory holding only BENCHMARK.json and bench/, the harness exits nonzero."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "check-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert proc.stdout.strip() == "", proc.stdout


def main() -> int:
    run.import_program()
    check_generator()
    print("ok  generator is deterministic and spans the required ranges")
    check_sweep_crosses()
    print("ok  sweep ranges cross the no-transfer crossover")
    check_workloads()
    check_needs_sources()
    print("ok  refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
