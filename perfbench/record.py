"""Record reference.json: the outputs every benchmark op is checked against.

    python3 perfbench/record.py

Run from the repository root on a commit whose outputs are trusted.  It
records the sweep rows of DEFAULT_SEED (CSV text of each row, runtime_ms
set to 0.0), the Gauss report row of every (field, n, a) in the candidate
pools, so that every seed's picks are covered, and verify's
(name, ok, count) triples.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import sumprodlab as lib  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as outdir:
        for w in ("sweep_prime", "sweep_ext"):
            ops, _wall, rows = workloads.run_pass(lib, w, workloads.DEFAULT_SEED, outdir)
            errors = workloads.oracle_check_rows(lib, workloads.DEFAULT_SEED, rows)
            if errors or any(op[3] for op in ops):
                raise SystemExit(f"{w}: refusing to record failing outputs: {errors}")
            ref[w] = {"seed": workloads.DEFAULT_SEED, "outputs": {op[0]: op[1] for op in ops}}
    gauss = {}
    for p, m, n in workloads.gauss_cells():
        for a in workloads.gauss_pool(p, m, n):
            rep = lib.gauss_bounds_report(lib.make_field(p, m), n, a)
            gauss[workloads.gauss_key(p, m, n, a)] = ",".join(rep.csv_row())
    ref["gauss_scan"] = {"outputs": gauss}
    ops, _wall, _ = workloads.run_pass(lib, "verify_all", 0, "")
    if any(op[3] for op in ops):
        raise SystemExit(f"verify_all: refusing to record failing checks: {ops}")
    ref["verify_all"] = {"outputs": {op[0]: op[1] for op in ops}}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}: " + ", ".join(f"{w} {len(v['outputs'])}" for w, v in ref.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
