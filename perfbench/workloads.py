"""The four benchmark workloads: their inputs, one pass over their
operations, and the output each operation is checked by.

Inputs are built here from the benchmark seed; the library only ever sees
the generated inputs (sweep configs, (field, n, a) triples, a suite name).
This module imports nothing from sumprodlab at import time, so the parent
process can use it without loading the library.
"""

from __future__ import annotations

import dataclasses
import random
import time
from pathlib import Path

WORKLOADS = ("sweep_prime", "sweep_ext", "gauss_scan", "verify_all")

# Reference outputs of the sweeps are recorded for this seed only; the Gauss
# and verify references cover every seed (see reference.json).
DEFAULT_SEED = 1

# sweep_prime: one prime field where E+(AB) dominates.  |AB|^2 runs from
# about 2.6e6 to 2e8 pairs, either side of q log q ~ 2e7.
SWEEP_PRIME = {"fields": [[1000003, 1]], "sizes": [40, 60, 80, 100, 120],
               "trials": 2, "families": ("random",)}

# sweep_ext: three extension fields, where scalar Field.mul (product_set) and
# the digit-matrix additive histogram share the time.
SWEEP_EXT = {"fields": [[2, 14], [3, 9], [5, 6]], "sizes": [20, 40, 60],
             "trials": 1, "families": ("random", "geometric")}

# gauss_scan: every n >= 2 dividing q - 1, two characters a per n, each drawn
# by the seed from a fixed pool of GAUSS_POOL candidates per (field, n).
# The pool keeps every seed's outputs checkable against recorded values.
GAUSS_FIELDS = ((7, 4), (5, 5), (3, 8), (8191, 1))
GAUSS_POOL = 4
GAUSS_PICKS = 2

# verify_all: the same as `sumprod-lab verify all --max-q 512`.  Its inputs
# come from verify's own fixed seed, so the benchmark seed does not change them.
VERIFY_MAX_Q = 512


def setup_fields(workload: str) -> list[tuple[int, int]]:
    """The fields a workload names; set-up builds each with its generator.

    verify_all names none: run_suite picks its own fields, so building them
    stays inside the timed section, as in a `verify` CLI call.
    """
    if workload == "sweep_prime":
        return [tuple(f) for f in SWEEP_PRIME["fields"]]
    if workload == "sweep_ext":
        return [tuple(f) for f in SWEEP_EXT["fields"]]
    if workload == "gauss_scan":
        return list(GAUSS_FIELDS)
    return []


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def gauss_pool(p: int, m: int, n: int) -> list[int]:
    """GAUSS_POOL distinct characters a in [1, q) for one (field, n); seed-free."""
    q = p ** m
    return random.Random(f"gauss-pool:{p}:{m}:{n}").sample(range(1, q), GAUSS_POOL)


def gauss_cells() -> list[tuple[int, int, int]]:
    """(p, m, n) for every field of gauss_scan and every n >= 2 dividing q - 1."""
    return [(p, m, n) for p, m in GAUSS_FIELDS for n in _divisors(p ** m - 1) if n >= 2]


def gauss_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    """(p, m, n, a) for every gauss_scan op, in run order."""
    rng = random.Random(f"gauss-picks:{seed}")
    return [(p, m, n, a)
            for p, m, n in gauss_cells()
            for a in rng.sample(gauss_pool(p, m, n), GAUSS_PICKS)]


def gauss_key(p: int, m: int, n: int, a: int) -> str:
    return f"{p}^{m} n={n} a={a}"


def sweep_configs(workload: str, seed: int, outdir: str) -> list[dict]:
    """Raw sweep configs of a sweep workload, one per family.

    timing is on so that runtime_ms gives the per-row latency; it is the only
    column it changes, and the output check sets it back to 0.0.
    """
    spec = SWEEP_PRIME if workload == "sweep_prime" else SWEEP_EXT
    return [{"fields": spec["fields"], "family": family, "sizes": spec["sizes"],
             "trials": spec["trials"], "seed": seed, "d_policy": "random_nonzero",
             "outputs": f"{outdir}/{workload}-{family}.csv", "timing": True}
            for family in spec["families"]]


def expected_ops(workload: str) -> int:
    if workload == "gauss_scan":
        return len(gauss_cells()) * GAUSS_PICKS
    if workload == "verify_all":
        return 20
    spec = SWEEP_PRIME if workload == "sweep_prime" else SWEEP_EXT
    return len(spec["fields"]) * len(spec["sizes"]) * spec["trials"] * len(spec["families"])


def row_key(row) -> str:
    return f"{row.p}^{row.m} {row.family} size={row.size} trial={row.trial}"


# ---------------------------------------------------------------------------
# one pass, run inside a worker process with sumprodlab imported


def run_pass(lib, workload: str, seed: int, outdir: str):
    """Every op of one pass.

    Returns (ops, wall_s, extra): ops is a list of [key, output, latency_ms,
    error]; wall_s is the timed section; extra holds what the output check
    needs besides the ops (the sweep rows).
    """
    if workload in ("sweep_prime", "sweep_ext"):
        return _run_sweeps(lib, workload, seed, outdir)
    if workload == "gauss_scan":
        return _run_gauss(lib, seed)
    return _run_verify(lib)


def _run_sweeps(lib, workload, seed, outdir):
    configs = [lib.SweepConfig.from_dict(raw) for raw in sweep_configs(workload, seed, outdir)]
    ops, rows_all, wall = [], [], 0.0
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            rows = lib.run_sweep(cfg, threads=1)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            wall += time.perf_counter() - t0
            ops.append([f"{cfg.family} sweep", None, 0.0, f"{type(exc).__name__}: {exc}"])
            continue
        wall += time.perf_counter() - t0
        written = Path(cfg.outputs).read_text(encoding="utf-8")
        csv_error = None if written == lib.rows_to_csv(rows) else "written CSV differs from rows_to_csv"
        for row in rows:
            text = lib.rows_to_csv([dataclasses.replace(row, runtime_ms=0.0)])
            ops.append([row_key(row), text, row.runtime_ms, csv_error])
        rows_all.extend(rows)
    return ops, wall, rows_all


def _run_gauss(lib, seed):
    ops, wall = [], 0.0
    for p, m, n, a in gauss_inputs(seed):
        ctx = lib.make_field(p, m)
        t0 = time.perf_counter()
        try:
            rep = lib.gauss_bounds_report(ctx, n, a)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            dt = time.perf_counter() - t0
            ops.append([gauss_key(p, m, n, a), None, dt * 1e3, f"{type(exc).__name__}: {exc}"])
        else:
            dt = time.perf_counter() - t0
            ops.append([gauss_key(p, m, n, a), ",".join(rep.csv_row()), dt * 1e3, None])
        wall += dt
    return ops, wall, None


def _run_verify(lib):
    t0 = time.perf_counter()
    results = lib.run_suite("all", max_q=VERIFY_MAX_Q)
    wall = time.perf_counter() - t0
    ops = [[r.name, f"{'PASS' if r.ok else 'FAIL'},{r.count}", r.seconds * 1e3,
            None if r.ok else r.detail] for r in results]
    return ops, wall, None


def oracle_check_rows(lib, seed: int, rows) -> dict:
    """Recompute K and L of every sweep row with the loop oracle.

    Rows are rebuilt from the public family generator: with d drawn at
    random, the sweep uses A unchanged (stream 0) and B = C = A.  Returns
    {row key: error} for the rows that disagree.
    """
    from sumprodlab.oracle import OracleBudget, product_set_brute

    budget = OracleBudget(max_quadruples=10 ** 8, max_q=2 ** 31)
    errors = {}
    for row in rows:
        ctx = lib.make_field(row.p, row.m)
        A = lib.generate_family(ctx, row.family, row.size, seed, row.trial, 0)
        n = len(A)
        if ctx.neg(row.d) in A or row.d == 0:
            errors[row_key(row)] = f"shift d = {row.d} puts 0 in A + d"
            continue
        K = len(product_set_brute(A, A, budget)) / n
        L = len(product_set_brute(lib.shift(A, row.d), A, budget)) / n
        if (K, L) != (row.K, row.L):
            errors[row_key(row)] = f"oracle K, L = {K}, {L}; row has {row.K}, {row.L}"
    return errors
