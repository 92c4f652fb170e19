"""End-to-end acceptance checks, one test per numbered requirement.

Each test prints a one-line PASS summary (visible under pytest -s / -v with
output capture off) and enforces an explicit wall-clock budget, so a slow
regression fails loudly rather than silently degrading.
"""

import functools
import math
import time

from sumprodlab.sweep import SweepConfig, exponent_fit, rows_to_csv, run_sweep
from sumprodlab.verify import (check_cauchy_schwarz_chain,
                               check_difference_count, check_energy_vs_oracle,
                               check_gauss_sweep, check_plunnecke,
                               check_product_shift_identity,
                               check_quadratic_gauss, check_subfield_gcd,
                               check_subgroup_energy_cube,
                               check_triple_cover_totals)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def report(tag, count, seconds, budget, extra=""):
    line = f"PASS {tag}: n={count} in {seconds:.2f}s (budget {budget:.0f}s)"
    print(line + (f"  {extra}" if extra else ""))
    assert seconds < budget, f"{tag} exceeded its {budget}s budget: {seconds:.2f}s"


def test_c01_energy_matches_oracle():
    n, secs = timed(check_energy_vs_oracle, 512)
    assert n == 200
    report("c01 energy-vs-oracle", n, secs, 60)


def test_c02_product_shift_identity():
    (n, detail), secs = timed(check_product_shift_identity, 4096)
    assert n >= 10 ** 4
    fields = int(detail.split("=")[1])
    assert fields >= 20
    report("c02 product-shift-identity", n, secs, 5, detail)


def test_c03_triple_cover_totals():
    n, secs = timed(check_triple_cover_totals, 512)
    assert n == 100
    report("c03 triple-cover-totals", n, secs, 120)


def test_c04_cauchy_schwarz_chain():
    n, secs = timed(check_cauchy_schwarz_chain, 512)
    assert n == 100
    report("c04 cauchy-schwarz-chain", n, secs, 60)


def test_c05_plunnecke_ruzsa():
    n, secs = timed(check_plunnecke, 512)
    assert n == 200
    report("c05 plunnecke-ruzsa", n, secs, 30)


def test_c06_subgroup_energy_cube():
    n, secs = timed(check_subgroup_energy_cube, 1024)
    assert n > 0
    report("c06 subgroup-energy-cube", n, secs, 60)


def test_c07_subfield_gcd_formula():
    n, secs = timed(check_subfield_gcd, 4096)
    assert n > 0
    report("c07 subfield-gcd-formula", n, secs, 120)


@functools.lru_cache(maxsize=1)
def _gauss_sweep_run():
    (agreements, detail), secs = timed(check_gauss_sweep, 2000)
    return agreements, detail, secs


def test_c08_gauss_sum_agreement():
    agreements, detail, secs = _gauss_sweep_run()
    assert agreements > 0
    report("c08 gauss-agreement", agreements, secs, 300, detail)


def test_c09_quadratic_gauss_magnitude():
    n, secs = timed(check_quadratic_gauss, 97)
    assert n == 24  # odd primes up to 97
    report("c09 quadratic-gauss", n, secs, 1)


def test_c10_magnitude_bounds_never_fire():
    # the Weil and energy bounds are asserted inside every report of the
    # c08 sweep; reaching this point means none of them fired
    agreements, detail, secs = _gauss_sweep_run()
    bound_checks = int(detail.split("=")[1])
    assert bound_checks > 0
    report("c10 magnitude-bounds", bound_checks, secs, 300, detail)


def test_c11_difference_count_oracle():
    (n, detail), secs = timed(check_difference_count, 997)
    assert n == 500
    assert "max=" in detail and "mean=" in detail
    peak = float(detail.split("max=")[1].split()[0])
    assert math.isfinite(peak)
    report("c11 difference-count", n, secs, 30, detail)


def test_c12_sweep_byte_identity(tmp_path):
    t0 = time.perf_counter()
    outs = [tmp_path / f"run{i}.csv" for i in range(3)]
    raw = {"fields": [[97, 1], [7, 2]], "family": "random", "sizes": [4, 8],
           "trials": 3, "seed": 123, "d_policy": "random_nonzero",
           "outputs": ""}
    texts = []
    for out, threads in zip(outs, (1, 1, 3)):
        cfg = SweepConfig.from_dict(dict(raw, outputs=str(out)))
        run_sweep(cfg, threads=threads)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1], "two single-threaded runs differ"
    assert texts[0] == texts[2], "thread count changed the CSV bytes"
    secs = time.perf_counter() - t0
    report("c12 sweep-reproducibility", len(texts), secs, 120,
           f"{len(texts[0])} bytes")


def test_c13_exponent_tables(tmp_path):
    t0 = time.perf_counter()
    geo = SweepConfig.from_dict({
        "fields": [[1009, 1], [40009, 1]], "family": "geometric",
        "sizes": [16, 32, 64, 128], "trials": 1, "seed": 11,
        "d_policy": "random_nonzero", "outputs": str(tmp_path / "geo.csv")})
    geo_rows = run_sweep(geo)
    shifted = SweepConfig.from_dict({
        "fields": [[2521, 1]], "family": "shifted_subgroup",
        "sizes": [16, 32, 64, 126], "trials": 2, "seed": 11,
        "d_policy": "random_nonzero", "outputs": str(tmp_path / "shift.csv")})
    shift_rows = run_sweep(shifted)

    for rows in (geo_rows, shift_rows):
        assert all(math.isfinite(r.measured_exponent) and
                   r.measured_exponent > 0 for r in rows)

    # flags mark exactly the rows whose set outgrows sqrt(q)
    small = [r for r in geo_rows if r.p == 1009]
    assert {r.hypothesis_ok for r in small} == {True, False}
    for r in geo_rows:  # geometric sets are never stripped here
        assert r.hypothesis_ok == (r.size ** 2 <= r.q)
    assert {r.hypothesis_ok for r in shift_rows} == {True, False}

    fits = {"geometric": exponent_fit(geo_rows),
            "shifted_subgroup": exponent_fit(shift_rows)}
    for fam, (slope, intercept) in fits.items():
        assert math.isfinite(slope) and math.isfinite(intercept)
    assert (tmp_path / "geo.csv").read_text(encoding="utf-8").count("\n") == \
        2 + len(geo_rows)
    secs = time.perf_counter() - t0
    detail = ", ".join(f"{fam} slope={slope:.3f}"
                       for fam, (slope, _) in fits.items())
    report("c13 exponent-tables", len(geo_rows) + len(shift_rows), secs,
           600, detail)


def test_rows_roundtrip_through_csv_text():
    # belt-and-braces on top of c12: the CSV writer itself is deterministic
    cfg = SweepConfig.from_dict({
        "fields": [[13, 1]], "family": "subgroup", "sizes": [4], "trials": 1,
        "seed": 0, "d_policy": 1, "outputs": ""})
    rows = run_sweep(cfg)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(cfg))
