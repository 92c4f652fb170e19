import inspect

import pytest

from sumprodlab import sets
from sumprodlab.verify import (SUITE_NAMES, SUITES, CheckResult, run_suite)

KERNELS = ("_tiled_counts", "_transform_counts", "_merge_counts", "_dense_counts")


def test_suite_names_frozen():
    assert SUITE_NAMES == ("all", "identities", "oracle", "bounds",
                           "subfields", "gauss")
    assert sum(len(v) for v in SUITES.values()) == 20


def test_every_check_takes_only_max_q():
    # run_suite passes max_q alone, so a check's counts are fixed in its body
    for checks in SUITES.values():
        for name, fn in checks:
            params = list(inspect.signature(fn).parameters.values())
            assert [(p.name, p.default) for p in params] == [("max_q", inspect.Parameter.empty)], name


def test_check_result_line():
    ok = CheckResult("thing", True, 42, 1.234)
    assert ok.line() == "PASS thing (n=42, 1.23s)"
    bad = CheckResult("thing", False, 0, 0.5, "RuntimeError: boom")
    assert bad.line() == "FAIL thing (n=0, 0.50s)  RuntimeError: boom"


def test_run_suite_validation():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
    with pytest.raises(ValueError, match="max_q"):
        run_suite("identities", max_q=32)


def test_identities_suite_small():
    results = run_suite("identities", max_q=64)
    assert [r.name for r in results] == [
        "field_arithmetic", "product_shift_identity", "triple_cover_totals",
        "triple_cover_vs_brute", "subgroup_energy_cube"]
    assert all(r.ok for r in results), [r.line() for r in results]
    assert all(r.count > 0 for r in results)


def test_failures_are_wrapped_not_raised(monkeypatch):
    def boom(max_q):
        raise RuntimeError("forced")

    monkeypatch.setitem(SUITES, "oracle", (("boom", boom),))
    results = run_suite("oracle")
    assert len(results) == 1
    assert results[0].ok is False
    assert "forced" in results[0].detail


def test_all_suite_reaches_every_pair_count_kernel(monkeypatch):
    seen = set()
    for name in KERNELS:
        def spy(*args, _real=getattr(sets, name), _name=name):
            if _name == "_transform_counts":
                seen.add((_name, "p = 2" if args[0].p == 2 else "odd p"))
            else:
                seen.add(_name)
            return _real(*args)

        monkeypatch.setattr(sets, name, spy)
    results = run_suite("all", 512)
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]
    assert seen == {"_tiled_counts", "_merge_counts", "_dense_counts",
                    ("_transform_counts", "p = 2"), ("_transform_counts", "odd p")}


def _off_by_one(counts):
    counts = counts.copy()
    counts[counts.argmax()] += 1
    return counts


@pytest.mark.parametrize("name", KERNELS)
def test_oracle_suite_fails_on_a_broken_kernel(name, monkeypatch):
    # each kernel is checked on its own, so one wrong count fails the energies
    real = getattr(sets, name)
    if name == "_merge_counts":
        def broken(*args):
            values, counts = real(*args)
            return values, _off_by_one(counts)
    else:
        def broken(*args):
            return _off_by_one(real(*args))
    monkeypatch.setattr(sets, name, broken)
    results = {r.name: r for r in run_suite("oracle", 512)}
    assert not results["energy_vs_oracle"].ok
    assert results["difference_count_vs_oracle"].ok
