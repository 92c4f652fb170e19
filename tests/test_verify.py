import inspect

import pytest

from sumprodlab.verify import (SUITE_NAMES, SUITES, CheckResult, run_suite)


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
