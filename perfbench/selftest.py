"""Self-test of the benchmark's tracing and its declared metrics.

    python3 perfbench/selftest.py

Run from the repository root; it takes a few minutes.  For every workload
it makes two short traced runs of run.py and checks that

- both runs pass their output checks;
- every per-layer metric fires (is > 0) on each workload FIRES assigns it to;
- the exact counts (calls, pairs, counters, distinct_frac) are identical
  across the two runs;
- BENCHMARK.json declares exactly the metrics run.py and tracer.py report.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run
import tracer
import workloads

ALL = workloads.WORKLOADS
SWEEPS = ("sweep_prime", "sweep_ext")

# metric -> workloads where it must be > 0 (the table in README.md)
FIRES = {
    "energy.energy.self_s": ("sweep_prime", "gauss_scan"),
    "energy.energy.calls": ("sweep_prime", "gauss_scan"),
    "energy.energy.pairs": ("sweep_prime", "gauss_scan"),
    "energy.energy.distinct_frac": ("gauss_scan",),
    "sets.product_set.self_s": ("sweep_ext",),
    "sets.product_set.calls": ("sweep_ext",),
    "sets.product_set.distinct_frac": ("sweep_ext",),
    "fields.Field.mul.calls": ("sweep_ext", "verify_all", "gauss_scan"),
    "fields.make_field.self_s": ALL,
    "fields.Field.generator.self_s": ALL,
    "fields.Field.dlog_tables.self_s": ("verify_all",),
    "subgroups.subgroup_of_order.self_s": ("gauss_scan", "verify_all"),
    "subgroups.subgroup_of_order.distinct_frac": ("gauss_scan", "verify_all"),
    "subgroups.subfield_intersection.self_s": ("verify_all",),
    "subgroups.difference_count.self_s": ("verify_all",),
    "gauss.gauss_sum.self_s": ("gauss_scan", "verify_all"),
    "gauss.subgroup_character_sum.self_s": ("gauss_scan", "verify_all"),
    "gauss.gauss_bounds_report.self_s": ("gauss_scan", "verify_all"),
    "gauss.gauss_sum_by_subgroup.self_s": ("verify_all",),
    "energy.growth_chain_report.self_s": SWEEPS + ("verify_all",),
    "energy.cauchy_schwarz_chain.self_s": ("verify_all",),
    "energy.triple_cover_totals.self_s": ("verify_all",),
    "families.generate_family.self_s": SWEEPS,
    "sweep.run_sweep.self_s": SWEEPS,
    "oracle.energy_brute.self_s": ("verify_all",),
    "oracle.product_set_brute.self_s": SWEEPS + ("verify_all",),
    "oracle.difference_count_brute.self_s": ("verify_all",),
    "sets.ESet.contains.calls": ("verify_all",),
    "verify.checks.self_s": ("verify_all",),
    "fields.self_s": ALL,
    "sets.self_s": SWEEPS + ("verify_all",),
    "energy.self_s": ALL,
    "subgroups.self_s": ("gauss_scan", "verify_all"),
    "gauss.self_s": ("gauss_scan", "verify_all"),
    "families.self_s": SWEEPS,
    "sweep.self_s": SWEEPS,
    "oracle.self_s": SWEEPS + ("verify_all",),
    "verify.self_s": ("verify_all",),
    "trace.overhead_frac": (),  # a difference of two timings; only checked to be finite
}

EXACT = ("calls", "pairs", "distinct_frac")


def traced_run(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.1",
                           "--trace", "1"], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    problems = []
    declared = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"]) for m in declared["per_layer"]] != tracer.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [(m["name"], m["unit"]) for m in declared["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [w["name"] for w in declared["workloads"]] != list(ALL):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if set(FIRES) != {name for name, _ in tracer.PER_LAYER}:
        problems.append("FIRES does not cover exactly the per-layer metrics")
    for workload in ALL:
        first, second = traced_run(workload), traced_run(workload)
        for name, unit in tracer.PER_LAYER:
            value = first[name]["value"]
            if first[name]["unit"] != unit or not math.isfinite(value):
                problems.append(f"{workload}: {name} = {value} {first[name]['unit']}")
            if workload in FIRES[name] and not value > 0:
                problems.append(f"{workload}: {name} does not fire ({value})")
            if name.rsplit(".", 1)[-1] in EXACT and value != second[name]["value"]:
                problems.append(f"{workload}: {name} differs between runs: "
                                f"{value} vs {second[name]['value']}")
        print(f"{workload}: checked {len(first)} per-layer metrics over two traced runs", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
