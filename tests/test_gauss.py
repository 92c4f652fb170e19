import ast
import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sumprodlab import gauss
from sumprodlab.energy import energy
from sumprodlab.fields import Field, divisors, make_field
from sumprodlab.gauss import (GAUSS_CSV_HEADER, MAX_DIRECT_Q, GaussReport,
                              gauss_bounds_report, gauss_sum,
                              gauss_sum_by_subgroup, subgroup_character_sum)
from sumprodlab.sets import ESet
from sumprodlab.subgroups import nth_power_subgroup, subgroup_of_order


@pytest.fixture(autouse=True)
def fresh_tables():
    # every test builds its own (field, n) entries and leaves none behind
    gauss._tables.cache_clear()
    yield
    gauss._tables.cache_clear()


def _is_cache(node):
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_module_level_caches_are_named():
    # a module-level cache outlives every caller, so a new one has to be added here
    cached, uses = [], 0
    for path in sorted(Path(gauss.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += sum(map(_is_cache, ast.walk(tree)))
        cached += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and any(_is_cache(d) for dec in node.decorator_list for d in ast.walk(dec))]
    assert cached == ["fields._shared_field", "gauss._tables"]
    assert uses == len(cached)  # none is applied by a call instead of a decorator


def test_quadratic_gauss_sum_frozen():
    f5 = make_field(5)
    s = gauss_sum(f5, 2, 1)
    assert math.isclose(s.real, math.sqrt(5), rel_tol=1e-12)
    assert abs(s.imag) < 1e-9
    rep = gauss_bounds_report(f5, 2, 1)
    assert math.isclose(rep.magnitude, math.sqrt(5), rel_tol=1e-12)
    assert rep.weil == math.sqrt(5)
    assert math.isclose(rep.subgroup_sum.real, (math.sqrt(5) - 1) / 2,
                        rel_tol=1e-12)
    assert rep.group_energy == 6  # E+({1, 4}) in GF(5)
    assert math.isclose(rep.konyagin, 5 ** 0.125 * 6 ** 0.25, rel_tol=1e-12)
    assert math.isclose(rep.ratio_weil, 1.0, rel_tol=1e-9)
    assert 0.0 < rep.ratio_paper < 1.0
    assert math.isclose(rep.nontrivial_cutoff, 5 ** (29 / 57))


def test_trivial_power_sum_vanishes():
    f5 = make_field(5)
    for a in range(1, 5):
        assert abs(gauss_sum(f5, 1, a)) < 1e-9


def test_extension_field_frozen():
    f9 = make_field(3, 2)
    v = gauss_sum_by_subgroup(f9, 4, 5)
    assert math.isclose(v.real, -3.0, abs_tol=1e-9)
    assert abs(v.imag) < 1e-9
    rep = gauss_bounds_report(f9, 4, 5)
    assert math.isclose(rep.magnitude, 3.0, abs_tol=1e-9)
    assert (rep.p, rep.m, rep.q, rep.n, rep.a) == (3, 2, 9, 4, 5)


def test_full_unit_group_and_singleton():
    f7 = make_field(7)
    units = nth_power_subgroup(f7, 1)
    assert units.order == 6
    for a in (1, 6):
        s = subgroup_character_sum(f7, units, a)
        assert cmath.isclose(s, -1.0, abs_tol=1e-9)
    one = subgroup_of_order(f7, 1)
    assert cmath.isclose(subgroup_character_sum(f7, one, 3),
                         f7.additive_char(3, 1), abs_tol=1e-12)
    # plain ESet input works too
    g = ESet(f7, [1, 2, 4])
    expect = sum(f7.additive_char(1, x) for x in (1, 2, 4))
    assert cmath.isclose(subgroup_character_sum(f7, g, 1), expect,
                         abs_tol=1e-12)


def test_subgroup_sum_above_direct_guard():
    # traces are taken only for the summed codes, never for all q of them
    ctx = make_field(2, 23)
    G = subgroup_of_order(ctx, 47)
    for a in (1, 5, ctx.q - 1):
        expect = sum(ctx.additive_char(a, x) for x in G.elements)
        assert abs(subgroup_character_sum(ctx, G, a) - expect) <= 1e-9


def test_agreement_direct_vs_subgroup():
    for p, m in [(13, 1), (5, 2), (2, 4)]:
        ctx = make_field(p, m)
        for n in (2, 3):
            if (ctx.q - 1) % n:
                continue
            for a in (1, ctx.q - 1):
                v = gauss_sum_by_subgroup(ctx, n, a)
                assert cmath.isclose(v, gauss_sum(ctx, n, a), abs_tol=1e-8)


def test_report_serialization():
    rep = gauss_bounds_report(make_field(13), 3, 2)
    row = rep.csv_row()
    assert len(row) == len(GAUSS_CSV_HEADER) == 13
    assert row[0] == "13" and row[3] == "3" and row[4] == "2"
    assert float(row[7]) == rep.magnitude
    assert float(row[11]) == rep.ratio_weil
    d = rep.as_dict()
    for k in GAUSS_CSV_HEADER:
        assert k in d
    assert d["group_energy"] == rep.group_energy
    assert isinstance(rep, GaussReport)


def test_power_cache_eviction_keeps_answers():
    f5 = make_field(5)
    before = gauss_sum(f5, 2, 1)
    for n in range(1, 20):
        gauss_sum(f5, n, 1)
    assert gauss_sum(f5, 2, 1) == before


def test_validation():
    f7 = make_field(7)
    with pytest.raises(ValueError, match="nonzero"):
        gauss_sum(f7, 2, 0)
    with pytest.raises(ValueError, match="positive"):
        gauss_sum(f7, 0, 1)
    with pytest.raises(ValueError, match="positive"):
        gauss_sum(f7, -2, 1)
    with pytest.raises(ValueError, match="divide"):
        gauss_sum_by_subgroup(f7, 4, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        gauss_bounds_report(f7, 1, 1)
    with pytest.raises(ValueError, match="does not live"):
        subgroup_character_sum(f7, ESet(make_field(11), [1]), 1)
    f13 = make_field(13)
    for bad in (True, 2.0, "2"):  # True is not 1: each raises, none is summed
        with pytest.raises(ValueError, match="positive integer"):
            gauss_sum(f13, bad, 1)
        with pytest.raises(ValueError, match="positive integer"):
            gauss_sum_by_subgroup(f13, bad, 1)
        with pytest.raises(ValueError, match="positive integer"):
            gauss_bounds_report(f13, bad, 1)
    big = make_field(1000003)
    assert big.q > MAX_DIRECT_Q
    with pytest.raises(ValueError, match="guard"):
        gauss_sum(big, 2, 1)


def test_numpy_power_index_reports_as_int():
    f13 = make_field(13)
    rep = gauss_bounds_report(f13, np.int64(3), 2)
    assert type(rep.n) is int and rep == gauss_bounds_report(f13, 3, 2)
    assert json.loads(json.dumps(rep.as_dict()))["n"] == 3
    assert gauss_sum(f13, np.int32(4), 5) == gauss_sum(f13, 4, 5)
    assert gauss_sum_by_subgroup(f13, np.int64(6), 5) == gauss_sum_by_subgroup(f13, 6, 5)


def _literal_powers(ctx, n):
    return np.array([ctx.pow(x, n) for x in range(ctx.q)], dtype=np.int64)


@pytest.mark.parametrize("pm", [(8191, 1), (3, 4), (2, 6), (5, 2)])
def test_chained_power_tables(pm, monkeypatch):
    ctx = make_field(*pm)
    exponents = []
    real_vpow = gauss._vpow

    def spy(ctx_, base, e):
        exponents.append(e)
        return real_vpow(ctx_, base, e)

    monkeypatch.setattr(gauss, "_vpow", spy)
    primes = {ell for ell in divisors(ctx.q - 1) if ell > 1 and len(divisors(ell)) == 2}
    for n in divisors(ctx.q - 1):  # ascending: every n > 1 raises a cached table to a prime
        table = gauss._tables(ctx, n).powers
        assert not table.flags.writeable and table.dtype == np.int32
        assert np.array_equal(table, _literal_powers(ctx, n))
    assert exponents[0] == 1 and set(exponents[1:]) <= primes
    # a cold cache chains down through the divisors it needs
    gauss._tables.cache_clear()
    top = ctx.q - 1
    assert np.array_equal(gauss._tables(ctx, top).powers, _literal_powers(ctx, top))
    # n not dividing q - 1 is built from the codes, whatever it shares with q - 1
    for n in (ctx.q, 2 * (ctx.q - 1), 10 ** 9 + 7):
        assert np.array_equal(gauss._tables(ctx, n).powers, _literal_powers(ctx, n))


@pytest.mark.parametrize("pm", [(8191, 1), (3, 4), (2, 6), (5, 2), (3, 9)])
def test_vpow_matches_scalar_pow(pm):
    ctx = make_field(*pm)
    codes = np.arange(ctx.q, dtype=np.int64)
    if ctx.q > 10 ** 4:
        codes = np.random.default_rng(ctx.q).integers(0, ctx.q, 2000)
    for e in (1, 2, 3, 4, 71, ctx.q - 2):
        got = gauss._vpow(ctx, codes, e)
        assert got.dtype == np.int32
        assert got.tolist() == [ctx.pow(x, e) for x in codes.tolist()]
    with pytest.raises(ValueError, match="positive"):
        gauss._vpow(ctx, codes, 0)


@pytest.mark.parametrize("block", [None, 7])
def test_vpow_squares_and_multiplies_without_one(block, monkeypatch):
    # left to right from the leading bit: bit_length(e) - 1 squarings and
    # popcount(e) - 1 multiplications per block, none by one
    ctx = make_field(3, 4)
    if block:
        monkeypatch.setattr(gauss, "_BLOCK", block * ctx.width)
    blocks = -(-ctx.q // block) if block else 1
    calls = []
    real = Field._digit_product

    def spy(self, dx, dy):
        calls.append(dx is dy)
        return real(self, dx, dy)

    monkeypatch.setattr(Field, "_digit_product", spy)
    codes = np.arange(ctx.q, dtype=np.int64)
    for e in (1, 2, 5, 71, 80, 2 ** 7 - 1):
        calls.clear()
        got = gauss._vpow(ctx, codes, e)
        assert got.tolist() == [ctx.pow(x, e) for x in range(ctx.q)]
        assert calls.count(True) == blocks * (e.bit_length() - 1)
        assert calls.count(False) == blocks * (bin(e).count("1") - 1)


def test_large_prime_power_index_is_quick(monkeypatch):
    # a large prime n is never factored (trial division would take sqrt(n) steps)
    ctx = make_field(8191)
    n = 10 ** 9 + 7
    factored = []
    real_factorize = gauss.factorize
    monkeypatch.setattr(gauss, "factorize", lambda k: factored.append(k) or real_factorize(k))
    # x^n = x^(n mod (q - 1)) on the units, and 0^n = 0
    expect = _literal_powers(ctx, n % (ctx.q - 1))
    expect[0] = 0
    assert np.array_equal(gauss._tables(ctx, n).powers, expect)
    assert cmath.isclose(gauss_sum(ctx, n, 3), gauss_sum(ctx, n % (ctx.q - 1), 3), abs_tol=1e-9)
    gauss_sum(ctx, 2 * 3 * 5 * 7, 3)
    assert set(factored) == {ctx.q - 1}


def test_subgroup_table_shared_across_characters(monkeypatch):
    # G_n and E+(G_n) are built together, once per cached (field, n), whichever
    # evaluation reads them first, and again only after the entry is evicted
    ctx = make_field(8191)
    expected = {n: energy(nth_power_subgroup(ctx, n).elements).value for n in (2, 4095)}
    built, counted = [], []
    real_subgroup, real_energy = Field.unit_subgroup, gauss._subgroup_energy

    def subgroup_spy(ctx_, t):
        built.append((ctx_.q - 1) // t)
        return real_subgroup(ctx_, t)

    def energy_spy(ctx_, codes):
        counted.append((ctx_.q - 1) // codes.size)
        return real_energy(ctx_, codes)

    monkeypatch.setattr(Field, "unit_subgroup", subgroup_spy)
    monkeypatch.setattr(gauss, "_subgroup_energy", energy_spy)
    for n in (2, 4095):
        reps = [gauss_bounds_report(ctx, n, a) for a in (1, 2, 17, ctx.q - 1)]
        gauss_sum_by_subgroup(ctx, n, 5)
        assert {r.group_energy for r in reps} == {expected[n]}
    assert built == [2, 4095] and counted == [2, 4095]
    gauss_sum_by_subgroup(ctx, 3, 5)
    gauss_sum_by_subgroup(ctx, 2, 5)
    assert built == counted == [2, 4095, 3]
    for n in range(10 ** 4, 10 ** 4 + 16):  # 16 newer entries evict n = 2
        gauss._tables(ctx, n)
    gauss_bounds_report(ctx, 2, 5)
    assert built == counted == [2, 4095, 3, 2]


def test_divisor_scan_builds_one_generator_table_per_field(monkeypatch):
    # the table of all q - 1 generator powers is built by the first request
    # for half the unit group, G_2, and never when q - 1 is odd
    full = []
    real = Field.powers

    def spy(ctx_, h, count):
        if count == ctx_.q - 1:
            full.append(repr(ctx_))
        return real(ctx_, h, count)

    monkeypatch.setattr(Field, "powers", spy)
    for pm in ((7, 2), (3, 4), (8191, 1), (2, 6)):
        ctx = Field(*pm)
        for n in divisors(ctx.q - 1)[1:]:
            gauss_bounds_report(ctx, n, 1)
    assert full == ["GF(7^2)", "GF(3^4)", "GF(8191)"]


def test_gauss_sum_builds_no_subgroup(monkeypatch):
    built = []
    monkeypatch.setattr(Field, "unit_subgroup", lambda ctx_, t: built.append(t))
    for pm in ((13, 1), (3, 4)):
        ctx = make_field(*pm)
        for n in divisors(ctx.q - 1) + [ctx.q]:
            gauss_sum(ctx, n, 1)
    assert built == []


def test_report_keeps_no_python_int_subgroup(monkeypatch):
    # G_n goes from the generator powers to E+(G_n) as one int64 array, with
    # no ESet of Python ints on the way; only its codes and E+(G_n) are kept
    made = []
    real = ESet.__init__

    def spy(self, ctx_, codes):
        made.append(len(codes))
        real(self, ctx_, codes)

    monkeypatch.setattr(ESet, "__init__", spy)
    ctx = make_field(8191)
    rep = gauss_bounds_report(ctx, 2, 1)
    assert made == []
    monkeypatch.undo()
    codes, e_g = gauss._tables(ctx, 2).subgroup
    assert codes.dtype == np.int64 and not codes.flags.writeable
    assert codes.tolist() == sorted(nth_power_subgroup(ctx, 2).elements.codes)
    assert e_g == rep.group_energy


@pytest.mark.parametrize("pm, n", [((8191, 1), 3), ((3, 4), 4), ((2, 6), 9), ((7, 4), 2400)])
def test_second_character_pays_no_vmul(pm, n, monkeypatch):
    # once a (field, n) is built, a character evaluates through the trace
    # form: no array multiplication per a, neither through vmul nor through
    # the digit product that builds the power tables
    ctx = make_field(*pm)
    calls = []
    for name in ("vmul", "_digit_product"):
        real = getattr(Field, name)

        def counting(self, x, y, real=real, name=name):
            calls.append(name)
            return real(self, x, y)

        monkeypatch.setattr(Field, name, counting)
    gauss_sum(ctx, n, 1)
    assert "_digit_product" in calls  # the spy sees the table build
    first = gauss_bounds_report(ctx, n, 1)  # and this one G_n and E+(G_n)
    calls.clear()
    for a in (2, ctx.q - 1):
        rep = gauss_bounds_report(ctx, n, a)
        assert rep.group_energy == first.group_energy
        gauss_sum(ctx, n, a)
        gauss_sum_by_subgroup(ctx, n, a)
    assert calls == []


def test_report_builds_one_trace_form(monkeypatch):
    # the subgroup codes and the power table are read against one form:
    # m scalar products per character, not one form per array
    ctx = make_field(3, 5)
    gauss_bounds_report(ctx, 2, 1)  # builds and keeps the (field, n) tables
    products = []
    real = Field.mul

    def counting(self, x, y):
        products.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(Field, "mul", counting)
    for a in (2, ctx.q - 1):
        products.clear()
        rep = gauss_bounds_report(ctx, 2, a)
        assert products == [(a, ctx.p ** i) for i in range(ctx.m)]
        assert rep.value == gauss_sum(ctx, 2, a)


@pytest.mark.parametrize("pm, n", [((13, 1), 3), ((3, 4), 4), ((2, 6), 9)])
def test_perturbed_power_table_raises(pm, n, monkeypatch):
    ctx = make_field(*pm)
    a = next(a for a in range(1, ctx.q) if ctx.trace(a) != 0)
    real = gauss._vpow

    def perturbed(ctx_, base, e):
        table = real(ctx_, base, e)
        table[1] = 0  # 1^n = 1 now counts at trace 0 instead of Tr(a)
        return table

    monkeypatch.setattr(gauss, "_vpow", perturbed)
    with pytest.raises(RuntimeError, match="disagree"):
        gauss_bounds_report(ctx, n, a)
    with pytest.raises(RuntimeError, match="disagree"):
        gauss_sum_by_subgroup(ctx, n, a)
