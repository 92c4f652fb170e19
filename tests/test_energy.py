import importlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import oracle, sets
from sumprodlab.energy import (KINDS, EnergyReport, cauchy_schwarz_chain, energy,
                               growth_chain_report, make_triple_witness,
                               pair_energy_bound_ratio, plunnecke_ruzsa_check,
                               product_shift_identity, shifted_subgroup_ratio,
                               triple_cover_count, triple_cover_totals)
from sumprodlab.fields import TABLE_LIMIT, Field, is_prime, make_field
from sumprodlab.sets import ESet, difference_set, dilate, product_set, sum_set
from sumprodlab.subgroups import subgroup_additive_energy, subgroup_of_order


def S(ctx, codes):
    return ESet(ctx, codes)


def test_energy_frozen_values():
    f5 = make_field(5)
    rep = energy(S(f5, [0, 1]))
    assert isinstance(rep, EnergyReport)
    assert rep.value == 6
    assert rep.histogram == {0: 1, 1: 2, 2: 1}
    assert rep.support_size == 3
    assert rep.as_dict() == {"kind": "additive", "value": 6, "support": 3}

    assert energy(S(f5, [0, 1]), kind="multiplicative").value == 10

    f7 = make_field(7)
    assert energy(S(f7, [1, 2, 3]), kind="multiplicative").value == 19
    assert energy(S(f7, [1, 2, 4]), kind="multiplicative").value == 27
    assert energy(S(f7, [1, 2, 4]), kind="multiplicative").histogram == \
        {1: 3, 2: 3, 4: 3}


def test_energy_two_sets_and_empty():
    f7 = make_field(7)
    rep = energy(S(f7, [1, 2]), S(f7, [3]))
    assert rep.value == 2 and rep.support_size == 2
    assert energy(S(f7, []), S(f7, [1])).value == 0
    with pytest.raises(ValueError):
        energy(S(f7, [1]), kind="odd")
    with pytest.raises(ValueError):
        energy(S(f7, [1]), S(make_field(11), [1]))


@pytest.mark.parametrize("pm", [(10007, 1), (3, 5)])
def test_energy_python_int_sum_of_squares(pm, monkeypatch):
    # above _INT64_EXACT_MASS pairs, sum r(z)^2 is taken over Python ints;
    # with the bound at 0 every call takes that branch
    ctx = make_field(*pm)
    rng = np.random.default_rng(sum(pm))
    A = S(ctx, rng.integers(1, ctx.q, 60).tolist())
    B = S(ctx, rng.integers(1, ctx.q, 40).tolist())
    int64 = {kind: energy(A, B, kind).value for kind in KINDS}
    monkeypatch.setattr(importlib.import_module("sumprodlab.energy"), "_INT64_EXACT_MASS", 0)
    for kind in KINDS:
        value = energy(A, B, kind).value
        assert type(value) is int and value == int64[kind]


def test_energy_extension_field_paths():
    # both kinds run on the digitwise array arithmetic; 0 takes no special path
    ctx = make_field(3, 2)
    sub = ctx.subfield(1)
    assert energy(sub, kind="additive").value == \
        oracle.energy_brute(sub, sub, "additive")
    nz = S(ctx, [1, 2])
    assert energy(nz, kind="multiplicative").value == \
        oracle.energy_brute(nz, nz, "multiplicative")
    withzero = S(ctx, [0, 1, 4])
    assert energy(withzero, kind="multiplicative").value == \
        oracle.energy_brute(withzero, withzero, "multiplicative")


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(5, 1), (13, 1), (2, 3), (3, 2)]),
       st.sampled_from(["additive", "multiplicative"]), st.data())
def test_energy_matches_oracle(pm, kind, data):
    ctx = make_field(*pm)
    pool = st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=7)
    A = S(ctx, data.draw(pool))
    B = S(ctx, data.draw(pool))
    assert energy(A, B, kind=kind).value == oracle.energy_brute(A, B, kind)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("pm", [(2 ** 31 - 1, 1), (2, 23), (3, 15)])
def test_sorted_merge_above_dense_limit(pm, block, monkeypatch):
    # q > 2^22 counts by sorted merge; a tiny block also merges many blocks
    if block is not None:
        monkeypatch.setattr(sets, "_BLOCK", block)
    ctx = make_field(*pm)
    assert ctx.q > TABLE_LIMIT
    x = ctx.p if ctx.m > 1 else 5
    geometric = [ctx.pow(x, k) for k in range(1, 4)]
    A = S(ctx, [0, 1, 2, 3, 4, ctx.q - 1] + geometric)
    B = S(ctx, [1, 2, ctx.q - 1] + geometric)
    budget = oracle.OracleBudget(max_q=2 ** 31)
    for X, Y in ((A, A), (A, B)):
        for kind in ("additive", "multiplicative"):
            assert energy(X, Y, kind=kind).value == oracle.energy_brute(X, Y, kind, budget)
        assert list(product_set(X, Y).codes) == oracle.product_set_brute(X, Y, budget)
        assert set(sum_set(X, Y).codes) == {ctx.add(a, b) for a in X for b in Y}
        assert set(difference_set(X, Y).codes) == {ctx.sub(a, b) for a in X for b in Y}


@pytest.mark.parametrize("side", ["merge", "dense", None])
@pytest.mark.parametrize("pm", [(7, 1), (1031, 1), (2, 5), (3, 4), (8191, 1), (2, 14), (1000003, 1)])
def test_few_pairs_merge_condition(pm, side, force_kernel, monkeypatch):
    # below TABLE_LIMIT, pairs no sum kernel takes merge when few against q;
    # both kernels, forced for every op, give the oracle's answers
    if side is not None:
        force_kernel(side, (Field.vadd, Field.vsub, Field.vmul))
    merged = []
    real = sets._merge
    monkeypatch.setattr(sets, "_merge", lambda v, c: merged.append(v.size) or real(v, c))
    ctx = make_field(*pm)
    budget = oracle.OracleBudget(max_q=ctx.q)
    rng = random.Random(f"merge:{pm}")
    q = ctx.q
    A = S(ctx, [0, 1, q - 1] + rng.sample(range(q), min(q, 9)))
    B = S(ctx, [1, q - 1] + rng.sample(range(1, q), min(q - 1, 4)))
    one = S(ctx, [q - 1])
    for X, Y in ((A, B), (B, A), (A, A), (one, A), (one, one)):
        del merged[:]
        assert list(product_set(X, Y).codes) == oracle.product_set_brute(X, Y, budget)
        for kind in ("additive", "multiplicative"):
            assert energy(X, Y, kind=kind).value == oracle.energy_brute(X, Y, kind, budget)
        assert list(sum_set(X, Y).codes) == sorted({ctx.add(a, b) for a in X for b in Y})
        assert list(difference_set(X, Y).codes) == sorted({ctx.sub(a, b) for a in X for b in Y})
        if side is None:
            few = sets._choose_kernel(ctx, Field.vmul, len(X), len(Y)) == "merge"
        else:
            few = side == "merge"
        assert bool(merged) == few
        if side is None:  # fields up to 4096 codes always count densely; larger ones merge these
            assert few == (q > 4096)


def test_few_prime_pairs_merge_without_tiles(monkeypatch):
    # 100 pairs in GF(1000003) make no second tile: sums, differences and
    # additive energy merge them, as products do, instead of counting over p
    tiled, merged = [], []
    real_tiled, real_merge = sets._tiled_counts, sets._merge
    monkeypatch.setattr(sets, "_tiled_counts", lambda *args: tiled.append(args) or real_tiled(*args))
    monkeypatch.setattr(sets, "_merge", lambda v, c: merged.append(v.size) or real_merge(v, c))
    ctx = make_field(1000003)
    budget = oracle.OracleBudget(max_q=ctx.q)
    rng = random.Random("few-prime-pairs")
    A, B = (S(ctx, rng.sample(range(ctx.q), 10)) for _ in range(2))
    runs = [(lambda: list(sum_set(A, B).codes), sorted({ctx.add(a, b) for a in A for b in B})),
            (lambda: list(difference_set(A, B).codes), sorted({ctx.sub(a, b) for a in A for b in B})),
            (lambda: energy(A, B).value, oracle.energy_brute(A, B, "additive", budget)),
            (lambda: energy(A).value, oracle.energy_brute(A, A, "additive", budget))]
    for run, expect in runs:
        del merged[:]
        assert run() == expect
        assert merged
    assert tiled == []


def _tiles_of_width(p, nx, ny, tile):
    """The tiles' nb for |X| = nx, |Y| = ny had they a narrowest width of tile codes."""
    return max(1, min(-(-p // tile), math.isqrt(nx * ny // tile)))


@pytest.mark.parametrize("tile, block", [(1, None), (2, 7), (3, None), (5, 3), (None, None)])
def test_tiled_prime_sums_and_differences(tile, block, force_kernel, monkeypatch):
    # tiles of a tiny width run many intervals, windows that wrap past p and
    # row blocks inside a tile; the callers, forced to the tiles, run them at
    # the nb of their sizes.  With no width given, these small sets make no
    # second tile and go to the merge or the dense count
    if tile is not None:
        force_kernel("tiles")
    if block is not None:
        monkeypatch.setattr(sets, "_BLOCK", block)
    rng = random.Random(f"tiles:{tile}:{block}")
    for p in (2, 3, 101, 10007):
        ctx = make_field(p)
        budget = oracle.OracleBudget(max_q=p)
        cases = [([0, p - 1], [0, p - 1]), ([0], [p - 1]), ([p - 1], [p - 1])]
        for _ in range(4):
            cases.append((rng.sample(range(p), min(p, rng.randint(1, 12))) + [0],
                          rng.sample(range(p), min(p, rng.randint(1, 7))) + [p - 1]))
        for xs, ys in cases:
            A, B = S(ctx, xs), S(ctx, ys)
            for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub)):
                # callers need not sort: the kernel sorts its inputs
                values, counts = sets._pair_counts(ctx, A.codes[::-1], B.codes[::-1], op)
                assert values.dtype == counts.dtype == np.int64
                expect = sorted(Counter(scalar(a, b) for a in A for b in B).items())
                assert list(zip(values.tolist(), counts.tolist())) == expect
                if tile is not None:
                    xa, ya = (np.array(X.codes[::-1], dtype=np.int64) for X in (A, B))
                    nb = _tiles_of_width(p, len(A), len(B), tile)
                    got = sets._tiled_counts(p, xa, ya, nb, op is Field.vsub, False)
                    assert [(v, c) for v, c in enumerate(got.tolist()) if c] == expect
            assert list(sum_set(A, B).codes) == sorted({ctx.add(a, b) for a in A for b in B})
            assert list(difference_set(A, B).codes) == sorted({ctx.sub(a, b) for a in A for b in B})
            for X, Y in ((A, B), (B, A), (A, A)):
                assert energy(X, Y).value == oracle.energy_brute(X, Y, "additive", budget)


# GF(p^m) fields, m > 1, whose sums and differences the Z_p^m transform can count
TRANSFORM_FIELDS = [(2, 2), (2, 9), (2, 14), (3, 2), (3, 9), (5, 3), (7, 2)]


def _spy_transform(monkeypatch):
    """Record every _transform_counts call as (args, result)."""
    calls = []
    real = sets._transform_counts

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(sets, "_transform_counts", spy)
    return calls


def _transform_cases(ctx):
    """Pairs of code lists: 0 and q - 1, one-element sets, |X| != |Y|."""
    q = ctx.q
    rng = random.Random(f"transform:{q}")
    big = rng.sample(range(1, q), min(q - 1, 40))
    return [([0], [q - 1]), ([q - 1], [0, 1]), ([0] + big, big[:7]),
            (rng.sample(range(q), min(q, 9)), [0, q - 1])]


@pytest.mark.parametrize("pm", TRANSFORM_FIELDS)
def test_transform_counts_match_loop(pm):
    # the kernel itself: one set or two, sums and differences, over all q codes
    ctx = make_field(*pm)
    for xs, ys in _transform_cases(ctx):
        xa, ya = (np.array(v, dtype=np.int64) for v in (xs, ys))
        for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub)):
            for y_codes, same in ((ya, False), (xa, True)):
                got = sets._transform_counts(ctx, xa, y_codes, same, op is Field.vsub)
                assert got.dtype == np.int64
                pairs = Counter(scalar(x, y) for x in xa.tolist() for y in y_codes.tolist())
                assert got.tolist() == [pairs[v] for v in range(ctx.q)]


# ids: the transform ratio each choice stands for, 0 sending every nonempty
# sum and difference through the transform and infinity none
@pytest.mark.parametrize("kernel", ["transform", "count"], ids=["0", "inf"])
@pytest.mark.parametrize("pm", TRANSFORM_FIELDS)
def test_transform_pair_counts(pm, kernel, force_kernel, monkeypatch):
    # both choices must give the literal counts
    force_kernel(kernel)
    calls = _spy_transform(monkeypatch)
    ctx = make_field(*pm)
    budget = oracle.OracleBudget(max_q=ctx.q)
    cases = _transform_cases(ctx)
    for xs, ys in cases:
        A, B = S(ctx, xs), S(ctx, ys)
        for X, Y in ((A, B), (B, A), (A, A)):  # A, A passes one tuple twice
            for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub)):
                values, counts = sets._pair_counts(ctx, X.codes, Y.codes, op)
                assert values.dtype == counts.dtype == np.int64
                expect = Counter(scalar(a, b) for a in X for b in Y)
                assert list(zip(values.tolist(), counts.tolist())) == sorted(expect.items())
            value = energy(X, Y).value
            assert value == sum(c * c for c in Counter(ctx.add(a, b) for a in X for b in Y).values())
            if len(X) * len(Y) <= 100:
                assert value == oracle.energy_brute(X, Y, "additive", budget)
    # per case: three (X, Y) orders, each with vadd, vsub and the energy
    assert len(calls) == (9 * len(cases) if kernel == "transform" else 0)
    assert all(out is not None for _, out in calls)
    assert any(same for (_, _, _, same, _), _ in calls) == (kernel == "transform")


def _largest_transform_field(p):
    """(p, m) for the largest m with q*p <= _BLOCK."""
    m = 1
    while p ** (m + 2) <= sets._BLOCK:
        m += 1
    return p, m


@pytest.mark.parametrize("p", [p for p in range(2, 102) if is_prime(p)])
def test_dft_is_a_transform_mod_a_prime(p):
    # P is a prime above q with p | P - 1; w and w_inv are inverse up to p,
    # and a transform step's values fit in int64 with room to spare
    ctx = make_field(*_largest_transform_field(p))
    w, w_inv, P = sets._dft(ctx)
    assert is_prime(P) and P > ctx.q and (P - 1) % p == 0
    assert w.dtype == w_inv.dtype == np.int64 and w.shape == w_inv.shape == (p, p)
    assert (2 * np.abs(w) <= P).all() and (2 * np.abs(w_inv) <= P).all()
    product = w.astype(object).dot(w_inv.astype(object)) % P
    assert (product == p * np.eye(p, dtype=np.int64)).all()
    assert p * P * P // 2 < 2 ** 39  # _transform's bound, far inside int64
    if p == 2:
        assert w.tolist() == w_inv.tolist() == [[1, 1], [1, -1]]


@pytest.mark.parametrize("pm", [(2, 19), (3, 11), (7, 6), (101, 2)])
def test_transform_whole_field_counts(pm):
    # X = Y = the whole field: every sum and every difference occurs q times,
    # the largest count any input makes, at the largest q the chooser admits
    ctx = make_field(*pm)
    assert _largest_transform_field(ctx.p) == pm
    xa = np.arange(ctx.q, dtype=np.int64)
    for same in (True, False):
        for negate in (False, True):
            got = sets._transform_counts(ctx, xa, xa if same else xa.copy(), same, negate)
            assert got.dtype == np.int64 and (got == ctx.q).all()


def test_transform_needs_q_times_p_within_block(monkeypatch):
    # q*p bounds the transform's arrays (its values stay below p*P^2/2 < 2^39
    # mod _dft's prime P): however many the pairs, the chooser takes the
    # transform only within it
    many = 1 << 40
    calls = _spy_transform(monkeypatch)
    ctx = make_field(2, 20)  # q*p = 2^21 > _BLOCK
    assert sets._choose_kernel(ctx, Field.vadd, many, many) != "transform"
    A = S(ctx, [0, 1, 5, ctx.q - 1])
    assert energy(A).value == oracle.energy_brute(A, A, "additive",
                                                  oracle.OracleBudget(max_q=ctx.q))
    assert not calls
    monkeypatch.setattr(sets, "_BLOCK", 16)
    for pm, taken in (((2, 3), True), ((3, 2), False)):  # q*p = 16 and 27
        ctx = make_field(*pm)
        assert (sets._choose_kernel(ctx, Field.vadd, many, many) == "transform") == taken
        A = S(ctx, [0, 1, 5, ctx.q - 1])
        assert energy(A).value == oracle.energy_brute(A, A, "additive")
        if taken:  # the transform at q*p = _BLOCK is exact
            xa = np.array(A.codes, dtype=np.int64)
            pairs = Counter(ctx.add(x, y) for x in A for y in A)
            got = sets._transform_counts(ctx, xa, xa, True, False)
            assert got.tolist() == [pairs[v] for v in range(ctx.q)]


def _pair_count_loop(ctx, A, B, w):
    """T of cauchy_schwarz_chain by the literal double loop over AB x alpha*AB."""
    ab = product_set(A, B)
    alpha_ab, beta_ab = dilate(ab, w.alpha), dilate(ab, w.beta)
    return sum(1 for p1 in ab for p2 in alpha_ab if ctx.sub(p1, p2) in beta_ab)


@pytest.mark.parametrize("tile", [3, None])
@pytest.mark.parametrize("pm", [(101, 1), (10007, 1), (3, 4)])
def test_chain_pair_count_matches_loop(pm, tile, force_kernel):
    # with a tile width in a prime field, T's differences run through the
    # tiles, and the tiles at the nb of that width count T on their own
    tiled = tile is not None and pm[1] == 1
    if tiled:
        force_kernel("tiles")
    ctx = make_field(*pm)
    rng = random.Random(f"chain:{pm}")
    for _ in range(3):
        d = rng.randrange(1, ctx.q)
        units = [x for x in range(1, ctx.q) if ctx.add(x, d) != 0]
        A, B, C = (S(ctx, rng.sample(units, 7)) for _ in range(3))
        aprime = sorted(ctx.add(a, d) for a in A)
        w = make_triple_witness(A, C, d, *rng.sample(aprime, 3))
        rec = cauchy_schwarz_chain(A, B, C, d, w)
        expect = _pair_count_loop(ctx, A, B, w)
        assert rec.pair_count == expect
        if tiled:
            ab = product_set(A, B)
            xa, ya = (np.array(X.codes, dtype=np.int64) for X in (ab, dilate(ab, w.alpha)))
            nb = _tiles_of_width(ctx.p, xa.size, ya.size, tile)
            counts = sets._tiled_counts(ctx.p, xa, ya, nb, True, False)
            assert int(counts[list(dilate(ab, w.beta).codes)].sum()) == expect


def test_shifted_subgroup_ratio_frozen():
    f7 = make_field(7)
    got = shifted_subgroup_ratio(S(f7, [1, 2, 4]), 1)
    assert math.isclose(got, 17 / (9 * math.log(3)), rel_tol=1e-12)


def test_shifted_subgroup_ratio_validation():
    f7 = make_field(7)
    g = S(f7, [1, 2, 4])
    with pytest.raises(ValueError, match="nonzero"):
        shifted_subgroup_ratio(g, 0)
    with pytest.raises(ValueError):
        shifted_subgroup_ratio(S(f7, [1]), 1)
    with pytest.raises(ValueError):
        shifted_subgroup_ratio(S(f7, [0, 1]), 1)
    with pytest.raises(ValueError):
        shifted_subgroup_ratio(S(f7, [2, 4]), 1)  # no 1
    with pytest.raises(ValueError, match="closed"):
        shifted_subgroup_ratio(S(f7, [1, 2]), 1)


def test_triple_cover_frozen():
    f7 = make_field(7)
    aprime = S(f7, [1, 2])
    c = S(f7, [1, 3])
    assert triple_cover_count(aprime, c, 1, 2, 2) == 1
    assert triple_cover_count(aprime, c, 1, 3, 1) == 0
    with pytest.raises(ValueError):
        triple_cover_count(aprime, S(f7, [0, 1]), 1, 1, 1)


def test_triple_cover_matches_oracle():
    ctx = make_field(3, 2)
    aprime = S(ctx, [0, 2, 5])
    c = S(ctx, [1, 4, 7])
    for ys in [(1, 2, 3), (4, 4, 4), (0, 5, 8)]:
        assert triple_cover_count(aprime, c, *ys) == \
            oracle.triple_cover_brute(aprime, c, *ys)


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("pm", [(7, 1), (3, 2), (2, 5), (5, 3)])
def test_triple_cover_count_random_vs_oracle(pm, block, monkeypatch):
    # a small block splits the rows of C x A' across several product blocks
    if block is not None:
        monkeypatch.setattr(sets, "_BLOCK", block)
    ctx = make_field(*pm)
    rng = random.Random(pm[0] * 100 + pm[1])
    units = list(range(1, ctx.q))
    for i in range(30):
        aprime = S(ctx, rng.sample(range(ctx.q), [0, 1, 3, 5][i % 4]))
        c = S(ctx, rng.sample(units, rng.randint(1, min(6, ctx.q - 1))))
        y = [rng.randrange(ctx.q) for _ in range(3)]
        for ys in (y, (y[0], y[0], y[1]), (y[0],) * 3, (0, y[1], y[2])):
            assert triple_cover_count(aprime, c, *ys) == \
                oracle.triple_cover_brute(aprime, c, *ys)
    # every y inside A' with C = {1}: exactly one cover
    assert triple_cover_count(S(ctx, [1, 2, 3]), S(ctx, [1]), 3, 1, 2) == 1


def test_triple_cover_totals_rejects_wrong_inverse(monkeypatch):
    f7 = make_field(7)
    aprime, c = S(f7, [1, 2]), S(f7, [1, 3])
    assert triple_cover_totals(aprime, c)[0] == 2 * 8
    true_inv = Field.inv
    monkeypatch.setattr(Field, "inv", lambda self, x: self.mul(true_inv(self, x), 3))
    with pytest.raises(RuntimeError, match="triple cover total"):
        triple_cover_totals(aprime, c)


def test_triple_cover_totals():
    f7 = make_field(7)
    total, diag = triple_cover_totals(S(f7, [1]), S(f7, [3]))
    assert (total, diag) == (1, 1)
    aprime, c = S(f7, [2, 3, 5]), S(f7, [1, 2, 4])
    total, diag = triple_cover_totals(aprime, c)
    assert total == 3 * 27
    assert diag == 3 * (3 * 9 - 2 * 3)  # N_c = |A'| for every c here
    with pytest.raises(ValueError):
        triple_cover_totals(S(f7, []), c)


def test_product_shift_identity_frozen_and_bulk():
    f7 = make_field(7)
    assert product_shift_identity(f7, 1, 2, 4, 1, 1, 1) is True
    ctx = make_field(2, 4)
    for a3 in range(2, 10):
        assert product_shift_identity(ctx, 0, 1, a3, 5, 9, 3)
    with pytest.raises(ValueError):
        product_shift_identity(f7, 1, 1, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        product_shift_identity(f7, 1, 2, 3, 0, 1, 1)
    with pytest.raises(ValueError):
        product_shift_identity(f7, 1, 2, 3, 1, 1, 0)


def test_witness_and_chain_frozen():
    f7 = make_field(7)
    g = S(f7, [1, 2, 4])
    # A = B = C = {1,2,4}, d = 1, A' = {2,3,5}; picking the y_i inside A'
    # makes c = 1 a cover, and alpha = 3/2 = 5, beta = -1/2 = 3 in GF(7)
    w = make_triple_witness(g, g, 1, 2, 3, 5)
    assert (w.y1, w.y2, w.y3) == (2, 3, 5)
    assert (w.alpha, w.beta) == (5, 3)
    assert w.cover == 1
    assert w.cover == triple_cover_count(S(f7, [2, 3, 5]), g, 2, 3, 5)
    rec = cauchy_schwarz_chain(g, g, g, 1, w)
    assert rec.ab_size == 3
    assert rec.pair_count_lower == 3
    assert rec.pair_count == 6
    assert rec.cross_energy == 15 and rec.base_energy == 15
    assert rec.cross_energy * rec.ab_size >= rec.pair_count ** 2


def test_chain_validation():
    f7 = make_field(7)
    g = S(f7, [1, 2, 4])
    w = make_triple_witness(g, g, 1, 2, 3, 5)
    with pytest.raises(ValueError, match="nonzero"):
        cauchy_schwarz_chain(g, g, g, 0, w)
    with pytest.raises(ValueError, match=r"\|A\| = \|B\|"):
        cauchy_schwarz_chain(g, S(f7, [1, 2]), g, 1, w)
    with pytest.raises(ValueError, match="0 in"):
        cauchy_schwarz_chain(g, g, S(f7, [0, 1, 2]), 1, w)
    with pytest.raises(ValueError, match="0 in"):
        # -3 = 4 lies in A, so 0 lands in A + 3
        cauchy_schwarz_chain(g, g, g, 3, w)
    with pytest.raises(ValueError):
        make_triple_witness(g, g, 1, 1, 1, 3)
    with pytest.raises(ValueError):
        make_triple_witness(g, g, 0, 1, 2, 3)


def test_growth_chain_report_frozen():
    f7 = make_field(7)
    g = S(f7, [1, 2, 4])
    rep = growth_chain_report(g, g, g, 1)
    assert rep.a_size == 3
    assert rep.K == Fraction(1) and rep.ab_size == 3
    assert rep.L == Fraction(2) and rep.shifted_product_size == 6
    assert rep.energy_ab == 15
    assert math.isclose(rep.ratio_energy_lb, 15 * 64 / 27)
    assert math.isclose(rep.ratio_k14_l12, 4096 / 3)
    assert len(rep.inequalities) == 1
    ineq = rep.inequalities[0]
    assert ineq.name == "ruzsa_product_AA" and ineq.holds
    assert ineq.lhs == 3 * 3 and ineq.rhs == 9
    d = rep.as_dict()
    assert d["sizes"] == {"A": 3, "AB": 3, "A_d_C": 6}
    assert d["K"] == 1.0 and d["L"] == 2.0


def test_growth_chain_validation():
    f7 = make_field(7)
    g = S(f7, [1, 2, 4])
    with pytest.raises(ValueError):
        growth_chain_report(g, S(f7, [1, 2]), g, 1)
    with pytest.raises(ValueError, match="0 in C"):
        growth_chain_report(g, g, S(f7, [0, 1, 2]), 1)
    with pytest.raises(ValueError, match=r"0 in A \+ d"):
        growth_chain_report(g, g, g, 3)
    with pytest.raises(ValueError):
        growth_chain_report(S(f7, [1]), S(f7, [1]), S(f7, [1]), 1)


def test_plunnecke_frozen_and_validation():
    f11 = make_field(11)
    y = S(f11, [0, 1])
    xs = [S(f11, [0, 2]), S(f11, [0, 2])]
    assert plunnecke_ruzsa_check(y, xs, "additive") is True
    g7 = S(make_field(7), [1, 2, 4])
    assert plunnecke_ruzsa_check(g7, [g7, g7, g7], "multiplicative") is True
    with pytest.raises(ValueError, match="0-free"):
        plunnecke_ruzsa_check(y, xs, "multiplicative")
    with pytest.raises(ValueError):
        plunnecke_ruzsa_check(y, [], "additive")
    with pytest.raises(ValueError):
        plunnecke_ruzsa_check(y, [y] * 4, "additive")
    with pytest.raises(ValueError):
        plunnecke_ruzsa_check(S(f11, []), xs, "additive")
    with pytest.raises(ValueError):
        plunnecke_ruzsa_check(y, xs, "mixed")


def test_pair_energy_bound_frozen():
    f5 = make_field(5)
    rep = pair_energy_bound_ratio(S(f5, [1, 2]), S(f5, [1]), S(f5, [1, 3]))
    assert rep.energy == 4
    assert math.isclose(rep.bound, 16.0)
    assert math.isclose(rep.ratio, 0.25)
    assert rep.hypothesis_ok is True
    assert rep.as_dict()["value"] == 4
    big = S(f5, list(range(5)))
    assert pair_energy_bound_ratio(big, big, big).hypothesis_ok is False
    with pytest.raises(ValueError, match="prime"):
        pair_energy_bound_ratio(S(make_field(2, 2), [1]),
                                S(make_field(2, 2), [1]),
                                S(make_field(2, 2), [1]))
    with pytest.raises(ValueError):
        pair_energy_bound_ratio(S(f5, []), S(f5, [1]), S(f5, [1]))


def test_one_patch_point_for_the_pair_count(monkeypatch):
    # every pair count goes through the module attribute sets._pair_counts,
    # so a spy there alone sees the calls of energy, of the chain's T, of
    # product sets and of a small subgroup's E+(G)
    stacks = []
    real = sets._pair_counts

    def spy(ctx_, xs, ys, op):
        frame, names = sys._getframe(1), []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
        return real(ctx_, xs, ys, op)

    monkeypatch.setattr(sets, "_pair_counts", spy)
    ctx = make_field(101)
    A, B, C = S(ctx, [1, 2, 3, 5]), S(ctx, [7, 11, 13, 17]), S(ctx, [19, 23, 29, 31])
    w = make_triple_witness(A, C, 1, 2, 3, 4)
    G = subgroup_of_order(ctx, 5)
    assert len(G.elements) ** 2 <= ctx.q - 1
    cases = [("energy", lambda: energy(A, B)), ("product_set", lambda: product_set(A, B)),
             ("cauchy_schwarz_chain", lambda: cauchy_schwarz_chain(A, B, C, 1, w)),
             ("subgroup_additive_energy", lambda: subgroup_additive_energy(G))]
    direct = {}
    for caller, call in cases:
        del stacks[:]
        call()
        assert stacks and all(caller in names for names in stacks)
        direct[caller] = [names[0] for names in stacks]
    # the chain counts T itself, besides its product set and two energies
    assert direct == {"energy": ["energy"], "product_set": ["_support"],
                      "cauchy_schwarz_chain": ["_support", "cauchy_schwarz_chain", "energy", "energy"],
                      "subgroup_additive_energy": ["energy"]}
