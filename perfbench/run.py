"""sumprod-lab benchmark: one workload, each pass in its own fresh process.

    python3 perfbench/run.py --workload sweep_prime --seed 1 --seconds 27 --trace 0

Run it from the repository root; the library is imported from ./src.

--trace 0 measures the end-to-end metrics with tracing off: setup_s (median
of several fresh interpreters doing import + field set-up); ops_per_s from
each op's median latency across passes; peak_rss_mb (median over passes).
For gauss_scan it also prints op_p50_ms and op_p95_ms over the per-op
medians.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of README.md instead.

Passes run one after another, at least one of each kind, until the next
would end after --seconds.  Every op's output is checked: against
reference.json, against the same op in the run's other passes (traced and
untraced alike), and, for the sweep rows of the first pass, against the loop
oracle.  The last line of stdout is one JSON object with correct, attempted,
failed and metrics; the exit code is 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 8          # set-up-only processes per --trace 0 run, besides the passes
HARD_LIMIT_S = 165.0      # the whole run, including set-up probes
GAUSS_REL_TOL = 1e-9      # float columns of Gauss rows; integer columns are exact
GAUSS_ABS_TOL = 1e-9

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))

# Latency percentiles need many like ops; only gauss_scan has them (232 per
# pass).  Elsewhere a percentile is the time of one check or one row, which
# varied by about 20% between runs on a 2-vCPU virtual machine.  They are
# printed, not declared, since a declared metric is reported on every workload.
LATENCY_WORKLOADS = ("gauss_scan",)


class WorkerError(RuntimeError):
    pass


def spawn(root: Path, workload: str, seed: int, mode: str, outdir: Path, deadline: float,
          oracle: bool = False):
    """Run one worker process to completion; (start time, its JSON result)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--outdir", str(outdir)] + (
               ["--oracle"] if oracle else [])
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return t0, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{mode} worker printed no result") from exc


def same_output(workload: str, ref: str | None, out: str | None) -> bool:
    if ref is None or out is None:
        return False
    if workload != "gauss_scan":
        return ref == out
    a, b = ref.split(","), out.split(",")
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if "." not in x + y and "e" not in x + y:  # integer column: exact
            return False
        if not math.isclose(fx, fy, rel_tol=GAUSS_REL_TOL, abs_tol=GAUSS_ABS_TOL):
            return False
    return True


def check_passes(workload: str, seed: int, passes: list, reference: dict):
    """(attempted, failed, problems) over every op of every pass.

    An op fails if it raised, if its output differs from the reference, from
    the same op in an earlier pass of this run, or from the loop oracle.
    """
    ref = reference[workload]
    outputs = ref["outputs"] if ref.get("seed", seed) == seed else None
    expected = workloads.expected_ops(workload)
    first = {}
    attempted = failed = 0
    problems = []
    for res in passes:
        ops = res["ops"]
        attempted += max(expected, len(ops))
        failed += max(0, expected - len(ops))
        if len(ops) < expected:
            problems.append(f"{expected - len(ops)} ops missing from a pass")
        for key, out, _ms, err in ops:
            why = err
            if why is None and outputs is not None and not same_output(workload, outputs.get(key), out):
                why = f"differs from reference: {out!r} vs {outputs.get(key)!r}"
            if why is None and key in first and first[key] != out:
                why = "differs between passes of one run"
            if why is None and key in res["oracle"]:
                why = res["oracle"][key]
            first.setdefault(key, out)
            if why is not None:
                failed += 1
                problems.append(f"{key}: {why}")
    return attempted, failed, problems


def op_medians(passes):
    """Each op's latency as the median over passes, in seconds, and the
    median of what the ops do not cover (a sweep's audit and CSV write).

    Summed, they give a pass's duration built op by op, so noise that hits
    one op in one pass does not move it, and the set of samples is the same
    whatever the number of passes.
    """
    per_op = {}
    rest = []
    for res in passes:
        for key, _out, ms, _err in res["ops"]:
            per_op.setdefault(key, []).append(ms / 1e3)
        rest.append(res["wall_s"] - sum(op[2] for op in res["ops"]) / 1e3)
    return [statistics.median(v) for v in per_op.values()], statistics.median(rest)


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def machine(numpy_version) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": _commit(Path.cwd() / ".git")}


def _commit(git: Path):
    """HEAD's commit, read from the .git directory (None outside a clone)."""
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "sumprodlab" / "__init__.py").is_file():
        print(f"no sumprodlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    outdir = BENCH_DIR / "out" / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, outdir, reference)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass


def measure(args, root: Path, outdir: Path, reference: dict) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    workload, seed = args.workload, args.seed
    setups, plain, traced, errors = [], [], [], []

    def run(mode):
        t0, res = spawn(root, workload, seed, mode, outdir, deadline,
                        oracle=mode != "setup" and not plain and not traced)
        setups.append(res["ready"] - t0)
        return res

    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                run("setup")
        start = time.perf_counter()
        modes = ("pass", "traced") if args.trace else ("pass",)
        rounds = []
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                (traced if mode == "traced" else plain).append(run(mode))
            rounds.append(time.perf_counter() - t0)
            # stop before a round that would end past --seconds
            if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
                break
    except WorkerError as exc:
        errors.append(str(exc))

    passes = plain + traced
    attempted, failed, problems = check_passes(workload, seed, passes, reference)
    if errors:
        attempted += workloads.expected_ops(workload)
        failed += workloads.expected_ops(workload)
        problems.extend(errors)
    if traced:
        exact = [tracing.exact_part(t["trace"]) for t in traced]
        if any(e != exact[0] for e in exact[1:]):
            problems.append("trace counts differ between traced passes of one seed")

    print("machine: " + json.dumps(machine(passes[0]["numpy"] if passes else None)))
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes, each in a fresh process")
    if workload == "verify_all":
        print("  inputs come from verify's own fixed seed; --seed does not change them")
    metrics = {}
    if args.trace and plain and traced:
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0)
        values = tracing.layer_metrics([t["trace"] for t in traced], overhead)
        for name, unit in tracing.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:44s} {values[name]:.6g} {unit}")
    elif not args.trace and plain:
        lat, rest = op_medians(plain)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / (sum(lat) + rest),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "ops_per_s": f"{len(plain)} passes of {len(lat)} ops; pass walls "
                              + " ".join(f"{p['wall_s']:.3f}" for p in plain),
                 "peak_rss_mb": f"median of {len(plain)} passes"}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:12s} {values[name]:.6g} {unit}  ({notes[name]})")
        if workload in LATENCY_WORKLOADS:
            beyond = len(lat) - math.ceil(0.95 * len(lat))
            print(f"  op_p50_ms    {statistics.median(lat) * 1e3:.6g} ms  "
                  f"(over {len(lat)} per-op medians)")
            print(f"  op_p95_ms    {percentile(lat, 95) * 1e3:.6g} ms  "
                  f"(over {len(lat)} per-op medians, {beyond} beyond it)")
    print(f"  failed_frac  {failed / attempted if attempted else 1.0:.6g} ratio  ({failed}/{attempted} ops)")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    correct = failed == 0 and not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
