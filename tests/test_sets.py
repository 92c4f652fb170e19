import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import fields, sets
from sumprodlab.energy import energy
from sumprodlab.fields import Field, make_field
from sumprodlab.sets import (CosetStat, ESet, coset_scan, difference_set,
                             dilate, product_set, shift, sum_set)


def F(p, m=1):
    return make_field(p, m)


def test_eset_basics():
    ctx = F(7)
    s = ESet(ctx, [4, 1, 2, 4, 1])
    assert s.codes == (1, 2, 4)
    assert len(s) == 3
    assert list(s) == [1, 2, 4]
    assert 2 in s and 3 not in s and -1 not in s and 7 not in s
    assert np.int64(4) in s and np.int64(0) not in s
    assert not any(x in ESet(ctx, []) for x in (-1, 0, 1, 7))
    assert set(ESet.__slots__) == {"ctx", "codes"}  # membership bisects codes, no cache
    assert bool(s) and not bool(ESet(ctx, []))
    assert s == ESet(ctx, (4, 2, 1))
    assert s != ESet(F(11), [1, 2, 4])
    assert hash(s) == hash(ESet(ctx, [1, 2, 4]))
    assert repr(s) == "ESet(GF(7), {1,2,4})"


def test_eset_text_roundtrip():
    ctx = F(7)
    s = ESet.from_text(ctx, " 4, 1 ,2 ")
    assert s.codes == (1, 2, 4)
    assert s.to_text() == "1,2,4"
    assert ESet.from_text(ctx, "").codes == ()


def test_eset_range_check():
    with pytest.raises(ValueError):
        ESet(F(7), [7])
    with pytest.raises(ValueError):
        ESet(F(7), [-1])
    # codes are integers: no bools (True is not the element 1), floats or strings
    for bad in (True, np.True_, 2.7, "3", np.float64(4.9)):
        with pytest.raises(ValueError, match="not an element code"):
            ESet(F(7), [2, bad])


def test_product_set_frozen():
    ctx = F(7)
    out = product_set(ESet(ctx, [1, 2, 4]), ESet(ctx, [1, 3]))
    assert out.codes == (1, 2, 3, 4, 5, 6)


def test_sum_and_difference_frozen():
    ctx = F(7)
    g = ESet(ctx, [1, 2, 4])
    assert difference_set(g, g).codes == tuple(range(7))
    assert sum_set(ESet(ctx, [1, 2]), ESet(ctx, [0, 5])).codes == (0, 1, 2, 6)


def test_shift_and_dilate():
    ctx = F(7)
    g = ESet(ctx, [1, 2, 4])
    assert shift(g, 1).codes == (2, 3, 5)
    assert dilate(g, 2).codes == (1, 2, 4)  # subgroup, invariant under itself
    assert dilate(g, 3).codes == (3, 5, 6)
    with pytest.raises(ValueError):
        dilate(g, 0)
    with pytest.raises(ValueError):
        shift(g, 7)


def test_extension_field_ops():
    ctx = F(2, 4)
    sub = ctx.subfield(2)  # {0, 1, 6, 7}: closed under + and *
    assert sum_set(sub, sub) == sub
    nonzero = ESet(ctx, [c for c in sub.codes if c])
    assert product_set(nonzero, nonzero) == nonzero


@pytest.mark.parametrize("ratio", [0, math.inf])
@pytest.mark.parametrize("pm", [(2, 2), (2, 9), (2, 14), (3, 2), (3, 9), (5, 3), (7, 2)])
def test_extension_sum_and_difference_sets(pm, ratio, monkeypatch):
    # ratio 0 counts every sum and difference by the Z_p^m transform,
    # infinity by the broadcast bincount
    monkeypatch.setattr(sets, "_TRANSFORM_RATIO", ratio)
    ctx = F(*pm)
    rng = random.Random(f"sumsets:{pm}")
    q = ctx.q
    A = ESet(ctx, [0, q - 1] + rng.sample(range(q), min(q, 30)))
    B = ESet(ctx, rng.sample(range(1, q), min(q - 1, 6)))
    one = ESet(ctx, [q - 1])
    for X, Y in ((A, B), (B, A), (A, A), (one, A), (one, one)):
        assert list(sum_set(X, Y).codes) == sorted({ctx.add(a, b) for a in X for b in Y})
        assert list(difference_set(X, Y).codes) == sorted({ctx.sub(a, b) for a in X for b in Y})


@pytest.mark.parametrize("tile", [1, 2, 3, 5])
def test_symmetric_prime_tiles(tile, monkeypatch):
    # X + X passed as one object visits tile pairs b <= a only and doubles
    # b < a; an equal copy, and every difference, takes the full loop
    monkeypatch.setattr(sets, "_TILE", tile)
    flags = []
    real = sets._tiled_counts

    def spy(p, xs, ys, negate, same):
        flags.append(same)
        return real(p, xs, ys, negate, same)

    monkeypatch.setattr(sets, "_tiled_counts", spy)
    rng = random.Random(f"symmetric:{tile}")
    for p in (2, 3, 101, 10007):
        ctx = F(p)
        cases = [[0], [p - 1], [0, p - 1]]
        cases += [rng.sample(range(p), min(p, rng.randint(2, 14))) + [0, p - 1] for _ in range(3)]
        for codes in cases:
            X = ESet(ctx, codes)
            copy = tuple(list(X.codes))
            for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub)):
                expect = sorted(Counter(scalar(a, b) for a in X for b in X).items())
                for ys, same in ((X.codes, True), (copy, False)):
                    del flags[:]
                    values, counts = sets._pair_counts(ctx, X.codes, ys, op)
                    assert flags == [same]
                    assert list(zip(values.tolist(), counts.tolist())) == expect
            pairs = Counter(ctx.add(a, b) for a in X for b in X)
            assert energy(X).value == sum(c * c for c in pairs.values())
            assert energy(X, ESet(ctx, codes)).value == energy(X).value


def test_symmetric_tiles_visit_half_the_pairs(monkeypatch):
    monkeypatch.setattr(sets, "_TILE", 1)
    bins = []
    real_bincount = np.bincount
    monkeypatch.setattr(sets.np, "bincount", lambda z, **kw: bins.append(z.size) or real_bincount(z, **kw))
    ctx = F(101)
    X = ESet(ctx, range(0, 101, 3))
    sets._pair_counts(ctx, X.codes, X.codes, Field.vadd)
    half = sum(bins)
    del bins[:]
    sets._pair_counts(ctx, X.codes, tuple(list(X.codes)), Field.vadd)
    n = len(X)
    assert sum(bins) == n * n and half == n * (n + 1) // 2


def test_mixed_fields_rejected():
    with pytest.raises(ValueError, match="different fields"):
        product_set(ESet(F(7), [1]), ESet(F(11), [1]))


def test_coset_scan_prime_field_vacuous():
    stats, ok = coset_scan(ESet(F(13), [1, 5]), 0.5)
    assert ok and stats == []
    with pytest.raises(ValueError):
        coset_scan(ESet(F(13), []), 0.5)
    with pytest.raises(ValueError):
        coset_scan(ESet(F(13), [1]), 0.5, base="bogus")


def test_coset_scan_gf9_frozen():
    # the four dilates of GF(3) inside GF(9): {0,1,2}, {0,4,8}, {0,3,6}, {0,5,7}
    ctx = F(3, 2)
    stats, ok = coset_scan(ESet(ctx, [3, 4]), 0.5)
    assert ok
    assert [(s.nu, s.c, s.intersection) for s in stats] == \
        [(1, 1, 0), (1, 4, 1), (1, 6, 1), (1, 7, 0)]
    assert all(isinstance(s, CosetStat) and s.threshold == 3 ** 0.5 for s in stats)

    # the prime subfield itself meets its own coset in 3 > sqrt(3) points
    stats, ok = coset_scan(ESet(ctx, [0, 1, 2]), 0.5)
    assert not ok
    assert max(s.intersection for s in stats) == 3


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("pm", [(2, 6), (3, 4)])
def test_coset_scan_matches_scalar_loop(pm, block, monkeypatch):
    # a small block splits both the coset representatives and the rows of
    # reps x F across blocks of several rows each
    if block is not None:
        monkeypatch.setattr(fields, "_BLOCK", block)
        monkeypatch.setattr(sets, "_BLOCK", block)
    ctx = F(*pm)
    rng = random.Random(pm[0] + pm[1])
    g = ctx.generator()
    for S in (ESet(ctx, rng.sample(range(ctx.q), 12)), ctx.subfield(2),
              ESet(ctx, [0, 1, ctx.q - 1])):
        members = set(S.codes)
        expect = []
        for nu in (1, 2, 3):
            if pm[1] % nu or nu == pm[1]:
                continue
            F_nu = ctx.subfield(nu).codes
            c = 1
            for _ in range((ctx.q - 1) // (ctx.p ** nu - 1)):
                expect.append((nu, c, sum(ctx.mul(c, f) in members for f in F_nu)))
                c = ctx.mul(c, g)
        stats, ok = coset_scan(S, 0.5)
        assert [(st.nu, st.c, st.intersection) for st in stats] == expect
        assert ok == all(st.intersection <= st.threshold for st in stats)


def test_coset_scan_set_size_base():
    ctx = F(3, 2)
    s = ESet(ctx, [0, 1, 2])
    stats, ok = coset_scan(s, 9 / 11, base="set_size")
    assert all(st.threshold == 3.0 ** (9 / 11) for st in stats)
    assert not ok  # 3 > 3^(9/11)
    stats, ok = coset_scan(s, 1.0, base="set_size")
    assert ok


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(5, 1), (13, 1), (2, 4), (3, 2)]), st.data())
def test_product_set_matches_python_sets(pm, data):
    ctx = make_field(*pm)
    pool = st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=8)
    A = ESet(ctx, data.draw(pool))
    B = ESet(ctx, data.draw(pool))
    expect = sorted({ctx.mul(a, b) for a in A.codes for b in B.codes})
    assert list(product_set(A, B).codes) == expect
    expect = sorted({ctx.add(a, b) for a in A.codes for b in B.codes})
    assert list(sum_set(A, B).codes) == expect
    expect = sorted({ctx.sub(a, b) for a in A.codes for b in B.codes})
    assert list(difference_set(A, B).codes) == expect
