import ast
import math
import random
import tracemalloc
import types
from collections import Counter
from pathlib import Path

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
    assert s.codes.tolist() == [1, 2, 4]
    assert len(s) == 3
    assert list(s) == [1, 2, 4]
    assert 2 in s and 3 not in s and -1 not in s and 7 not in s
    assert np.int64(4) in s and np.int64(0) not in s
    assert not any(x in ESet(ctx, []) for x in (-1, 0, 1, 7))
    # below the least code and above the greatest, in the field and out of it
    assert 0 not in s and 5 not in s and 6 not in s and 2 ** 70 not in s and -2 ** 70 not in s
    assert all(type(s.__contains__(x)) is bool for x in (-1, 0, 1, 3, 6, 7))
    assert set(ESet.__slots__) == {"ctx", "codes"}  # membership searches codes, no cache
    assert bool(s) and not bool(ESet(ctx, []))
    assert s == ESet(ctx, (4, 2, 1))
    assert s != ESet(F(11), [1, 2, 4])
    assert hash(s) == hash(ESet(ctx, [1, 2, 4]))
    assert repr(s) == "ESet(GF(7), {1,2,4})"


def test_eset_text_roundtrip():
    ctx = F(7)
    s = ESet.from_text(ctx, " 4, 1 ,2 ")
    assert s.codes.tolist() == [1, 2, 4]
    assert s.to_text() == "1,2,4"
    assert ESet.from_text(ctx, "").codes.tolist() == []


def test_eset_range_check():
    with pytest.raises(ValueError):
        ESet(F(7), [7])
    with pytest.raises(ValueError):
        ESet(F(7), [-1])
    # codes are integers: no bools (True is not the element 1), floats or strings
    for bad in (True, np.True_, 2.7, "3", np.float64(4.9)):
        with pytest.raises(ValueError, match="not an element code"):
            ESet(F(7), [2, bad])



@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_eset_from_arrays(dtype):
    ctx = F(3, 5)
    rng = np.random.default_rng(7)
    codes = rng.integers(0, ctx.q, 60)
    codes = np.concatenate([codes, codes[:20], [0, ctx.q - 1]]).astype(dtype)
    rng.shuffle(codes)
    expect = ESet(ctx, codes.tolist())
    for arr in (codes, np.sort(codes), np.unique(codes), codes[::3], np.unique(codes)[::-1]):
        s = ESet(ctx, arr)
        assert s == ESet(ctx, arr.tolist()) and hash(s) == hash(ESet(ctx, arr.tolist()))
        assert s.codes.dtype == np.int64 and not np.shares_memory(s.codes, arr)
        assert all(type(c) is int for c in s)
    assert ESet(ctx, codes) == expect
    assert np.array_equal(ESet(ctx, np.unique(codes)).codes, expect.codes)
    empty = ESet(ctx, np.zeros(0, dtype=dtype))
    assert empty.codes.tolist() == [] and empty == ESet(ctx, []) and hash(empty) == hash(ESet(ctx, []))
    assert ESet(ctx, np.array([5], dtype=dtype)).codes.tolist() == [5]
    # the set keeps its own copy: writing into the source array leaves it as it was
    arr = np.unique(codes)
    s = ESet(ctx, arr)
    arr[0] = 1
    assert s == expect


def test_eset_array_rejects():
    ctx = F(7)
    for bad in (np.array([True, False]), np.array([1.0, 2.0]), np.array([[1, 2], [3, 4]]),
                np.array([3, -1, 2]), np.array([-1, 2, 3]), np.array([1, 7]), np.array([7, 1, 1]),
                np.array([2, 1, 9], dtype=np.uint16), np.array([1, 2.5], dtype=object)):
        with pytest.raises(ValueError):
            ESet(ctx, bad)
    # object arrays are cleaned code by code, as lists are
    assert ESet(ctx, np.array([4, 1, 4], dtype=object)).codes.tolist() == [1, 4]


@pytest.mark.parametrize("pm", [(7, 1), (10007, 1), (3, 5), (2, 14)])
def test_eset_codes_are_one_read_only_int64_array(pm):
    # every set, however it is built, holds its codes as one read-only,
    # strictly increasing int64 array, and iterating it yields Python ints
    ctx = F(*pm)
    rng = random.Random(f"format:{pm}")
    raw = [rng.randrange(ctx.q) for _ in range(40)] + [0, ctx.q - 1, 0]
    A = ESet(ctx, raw)
    built = [A, ESet(ctx, np.array(raw)), ESet(ctx, np.array(raw, dtype=np.uint32)),
             ESet(ctx, reversed(raw)), ESet(ctx, []), product_set(A, A), sum_set(A, A),
             difference_set(A, A), shift(A, 1), dilate(A, ctx.q - 1), ctx.subfield(1),
             ESet.from_text(ctx, ",".join(map(str, raw)))]
    for s in built:
        codes = s.codes
        assert type(codes) is np.ndarray and codes.dtype == np.int64 and codes.ndim == 1
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[:1] = 0
        assert (codes[1:] > codes[:-1]).all()
        assert all(type(c) is int for c in s) and list(s) == codes.tolist()
        assert len(s) == codes.size and bool(s) == (codes.size > 0)
    assert list(A) == sorted(set(raw))


def test_no_module_but_sets_converts_codes():
    # ESet.codes is already the int64 array every kernel reads, so no other
    # module wraps a .codes attribute in np.asarray or np.array
    found = []
    for path in sorted(Path(sets.__file__).parent.glob("*.py")):
        if path.stem == "sets":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("asarray", "array")
                    and getattr(node.func.value, "id", None) == "np"
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "codes"
                            for arg in node.args for sub in ast.walk(arg))):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_product_set_frozen():
    ctx = F(7)
    out = product_set(ESet(ctx, [1, 2, 4]), ESet(ctx, [1, 3]))
    assert out.codes.tolist() == [1, 2, 3, 4, 5, 6]


def test_sum_and_difference_frozen():
    ctx = F(7)
    g = ESet(ctx, [1, 2, 4])
    assert difference_set(g, g).codes.tolist() == list(range(7))
    assert sum_set(ESet(ctx, [1, 2]), ESet(ctx, [0, 5])).codes.tolist() == [0, 1, 2, 6]


def test_shift_and_dilate():
    ctx = F(7)
    g = ESet(ctx, [1, 2, 4])
    assert shift(g, 1).codes.tolist() == [2, 3, 5]
    assert dilate(g, 2).codes.tolist() == [1, 2, 4]  # subgroup, invariant under itself
    assert dilate(g, 3).codes.tolist() == [3, 5, 6]
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


# ids: the transform ratio each choice stands for, 0 sending every nonempty
# sum and difference to the Z_p^m transform and infinity none
@pytest.mark.parametrize("kernel", ["transform", "count"], ids=["0", "inf"])
@pytest.mark.parametrize("pm", [(2, 2), (2, 9), (2, 14), (3, 2), (3, 9), (5, 3), (7, 2)])
def test_extension_sum_and_difference_sets(pm, kernel, force_kernel):
    force_kernel(kernel)
    ctx = F(*pm)
    rng = random.Random(f"sumsets:{pm}")
    q = ctx.q
    A = ESet(ctx, [0, q - 1] + rng.sample(range(q), min(q, 30)))
    B = ESet(ctx, rng.sample(range(1, q), min(q - 1, 6)))
    one = ESet(ctx, [q - 1])
    for X, Y in ((A, B), (B, A), (A, A), (one, A), (one, one)):
        assert list(sum_set(X, Y).codes) == sorted({ctx.add(a, b) for a in X for b in Y})
        assert list(difference_set(X, Y).codes) == sorted({ctx.sub(a, b) for a in X for b in Y})


def _tiles_of_width(p, nx, ny, tile):
    """The tiles' nb for |X| = nx, |Y| = ny had they a narrowest width of tile codes."""
    return max(1, min(-(-p // tile), math.isqrt(nx * ny // tile)))


@pytest.mark.parametrize("tile", [1, 2, 3, 5])
def test_symmetric_prime_tiles(tile, force_kernel, monkeypatch):
    # at the nb that tiles of this width give, X + X passed as one object
    # visits tile pairs b <= a only and doubles b < a, while an equal copy,
    # and every difference, takes the full loop; with the chooser forced to
    # the tiles, _pair_counts passes the same object as same=True and the
    # nb of _tile_count
    force_kernel("tiles")
    calls = []
    real = sets._tiled_counts

    def spy(p, xs, ys, nb, negate, same):
        calls.append((nb, same))
        return real(p, xs, ys, nb, negate, same)

    monkeypatch.setattr(sets, "_tiled_counts", spy)
    rng = random.Random(f"symmetric:{tile}")
    routes = set()
    for p in (2, 3, 101, 10007):
        ctx = F(p)
        cases = [[0], [p - 1], [0, p - 1]]
        cases += [rng.sample(range(p), min(p, rng.randint(2, 14))) + [0, p - 1] for _ in range(3)]
        for codes in cases:
            X = ESet(ctx, codes)
            xa = np.array(X.codes, dtype=np.int64)
            copy = X.codes.copy()
            nb = _tiles_of_width(p, len(X), len(X), tile)
            routes.add(nb >= 2)
            for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub)):
                pairs = Counter(scalar(a, b) for a in X for b in X)
                for ys, same in ((xa, True), (xa.copy(), False)):
                    got = real(p, xa, ys, nb, op is Field.vsub, same)
                    assert got.tolist() == [pairs[v] for v in range(p)]
                for ys, same in ((X.codes, True), (copy, False)):
                    del calls[:]
                    values, counts = sets._pair_counts(ctx, X.codes, ys, op)
                    assert calls == [(sets._tile_count(p, len(X), len(X)), same)]
                    assert list(zip(values.tolist(), counts.tolist())) == sorted(pairs.items())
            pairs = Counter(ctx.add(a, b) for a in X for b in X)
            assert energy(X).value == sum(c * c for c in pairs.values())
            assert energy(X, ESet(ctx, codes)).value == energy(X).value
    assert routes == {True, False}


class _RecordAddAt:
    """Stands in for numpy inside sets: np.add.at records the size of each index array."""

    def __init__(self):
        self.sizes = []
        self.add = types.SimpleNamespace(at=self._at)

    def _at(self, counts, index, step):
        self.sizes.append(index.size)
        np.add.at(counts, index, step)

    def __getattr__(self, name):
        return getattr(np, name)


def test_symmetric_tiles_visit_half_the_pairs(monkeypatch):
    spy = _RecordAddAt()
    monkeypatch.setattr(sets, "np", spy)
    xs = np.arange(0, 101, 3)
    n = xs.size
    nb = _tiles_of_width(101, n, n, 1)  # n intervals
    sets._tiled_counts(101, xs, xs, nb, False, True)
    half = sum(spy.sizes)
    del spy.sizes[:]
    sets._tiled_counts(101, xs, xs.copy(), nb, False, False)
    assert nb == n and sum(spy.sizes) == n * n and half == n * (n + 1) // 2


def _loop_counts(p, xs, ys, negate):
    pairs = Counter((x - y if negate else x + y) % p for x in xs.tolist() for y in ys.tolist())
    return [pairs[v] for v in range(p)]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("nb", [1, 2, 3])
def test_tiled_counts_every_pair_of_subsets(p, nb):
    # nb = 2 makes windows of 2w = p + 1 codes, longer than p, so local codes
    # reach 2p - 1 before the fold; nb = 1 is one window of 2p codes; both
    # ops, the same object and a copy
    subsets = [np.array([c for c in range(p) if bits >> c & 1], dtype=np.int64)
               for bits in range(1 << p)]
    assert nb != 2 or 2 * -(-p // nb) == p + 1
    for xs in subsets:
        for ys in subsets:
            for negate in (False, True):
                got = sets._tiled_counts(p, xs, ys, nb, negate, False)
                assert got.tolist() == _loop_counts(p, xs, ys, negate)
        for negate in (False, True):
            got = sets._tiled_counts(p, xs, xs, nb, negate, True)
            assert got.tolist() == _loop_counts(p, xs, xs, negate)


def test_tiled_counts_memory_stays_below_counts_and_one_block():
    # one array of p + 2w counts and one block of pairs; no window per pair of tiles
    p = 1000003
    rng = np.random.default_rng(7)
    xs = np.unique(rng.integers(0, p, 3000))
    assert sets._choose_kernel(F(p), Field.vadd, xs.size, xs.size) == "tiles"
    nb = sets._tile_count(p, xs.size, xs.size)
    assert nb >= 2
    w = -(-p // nb)
    tracemalloc.start()
    try:
        counts = sets._tiled_counts(p, xs, xs, nb, False, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == xs.size ** 2
    assert peak < 8 * (p + 2 * w + fields._BLOCK)


def test_dense_count_memory_stays_below_two_count_arrays():
    # blocks of products add into the q counts in place, with no second q-length array
    ctx = F(1048573)
    assert ctx.q > 1 << 19 and ctx.q <= fields.TABLE_LIMIT
    rng = random.Random("dense-memory")
    xs = rng.sample(range(1, ctx.q), 400)
    ys = rng.sample(range(1, ctx.q), 400)
    xa, ya = (np.array(v, dtype=np.int64) for v in (xs, ys))
    assert sets._choose_kernel(ctx, Field.vmul, len(xs), len(ys)) == "dense"
    tracemalloc.start()
    try:
        values, counts = sets._pair_counts(ctx, xa, ya, Field.vmul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(counts.sum()) == len(xs) * len(ys)
    assert values.tolist() == sorted({ctx.mul(x, y) for x in xs for y in ys})
    assert peak < 2 * 8 * ctx.q


@pytest.mark.parametrize("pm", [(7, 1), (1031, 1), (3, 4), (2, 5)])
def test_merge_and_dense_counts_match_loop(pm):
    # both kernels take every op at any size, however few or many the pairs
    ctx = F(*pm)
    rng = random.Random(f"merge-dense:{pm}")
    q = ctx.q
    cases = [([0], [q - 1]), ([0, 1, q - 1], [1, q - 1]),
             (rng.sample(range(q), min(q, 30)), rng.sample(range(q), min(q, 5)))]
    for xs, ys in cases:
        xa, ya = (np.array(v[::-1], dtype=np.int64) for v in (xs, ys))
        for op, scalar in ((Field.vadd, ctx.add), (Field.vsub, ctx.sub), (Field.vmul, ctx.mul)):
            expect = sorted(Counter(scalar(x, y) for x in xs for y in ys).items())
            values, counts = sets._merge_counts(ctx, xa, ya, op)
            assert values.dtype == counts.dtype == np.int64
            assert list(zip(values.tolist(), counts.tolist())) == expect
            dense = sets._dense_counts(ctx, xa, ya, op)
            assert dense.shape == (q,)
            assert [(v, c) for v, c in enumerate(dense.tolist()) if c] == expect


def test_choose_kernel_boundaries():
    # each condition of the chooser, walked from both sides
    vadd, vsub, vmul = Field.vadd, Field.vsub, Field.vmul
    choose = sets._choose_kernel
    tile, limit, block = sets._TILE, fields.TABLE_LIMIT, sets._BLOCK
    many = 1 << 40

    # nb = 1 and 2, by the pairs: min(ceil(p / _TILE), isqrt(|X||Y| / _TILE))
    big = F(1000003)
    assert -(-big.p // tile) >= 2
    nx = 2 * math.isqrt(tile)
    ny = -(-4 * tile // nx)
    assert sets._tile_count(big.p, nx, ny) == 2 and sets._tile_count(big.p, nx, ny - 1) == 1
    for op in (vadd, vsub):
        assert choose(big, op, nx, ny) == "tiles"
        assert choose(big, op, nx, ny - 1) == "dense"
    assert choose(big, vmul, nx, ny) == "dense"
    # nb = 1 and 2, by the width: p <= _TILE never splits
    below, above = F(65521), F(65537)
    assert below.p <= tile < above.p <= 2 * tile
    assert choose(below, vadd, many, many) == "dense"
    assert choose(above, vadd, many, many) == "tiles"
    # q = TABLE_LIMIT: tiles and dense counts at or below it, the merge above
    assert F(4194301).q <= limit < F(4194319).q
    assert choose(F(4194301), vsub, many, many) == "tiles"
    assert choose(F(4194319), vsub, many, many) == "merge"
    assert F(2, 22).q == limit
    assert choose(F(2, 22), vmul, many, many) == "dense"
    assert choose(F(4194319), vmul, many, many) == "merge"

    # the transform ratio: |X||Y|*width against _TRANSFORM_RATIO * m*p*q,
    # met with equality in GF(3^4)
    ext = F(3, 4)
    cost = sets._TRANSFORM_RATIO * ext.m * ext.p * ext.q
    n = cost // ext.width
    assert n * ext.width == cost
    for op in (vadd, vsub):
        assert choose(ext, op, 1, n) == "dense"
        assert choose(ext, op, 1, n + 1) == "transform"
    assert choose(ext, vmul, 1, n + 1) == "dense"
    # q*p = _BLOCK
    at, past = F(2, 19), F(2, 20)
    assert at.q * at.p == block < past.q * past.p
    assert choose(at, vadd, many, many) == "transform"
    assert choose(past, vadd, many, many) == "dense"

    # the few-pairs line: the merge while q > _MERGE_BASE + _MERGE_RATIO * |X||Y|
    for ctx, op in ((big, vmul), (big, vadd), (F(3, 9), vmul), (F(2, 14), vsub)):
        n = (ctx.q - sets._MERGE_BASE - 1) // sets._MERGE_RATIO
        assert n >= 1
        assert choose(ctx, op, 1, n) == "merge"
        assert choose(ctx, op, 1, n + 1) == "dense"
    assert choose(F(4093), vmul, 1, 1) == "dense"  # q <= _MERGE_BASE never merges


def test_only_sets_and_verify_name_pair_count_kernels():
    # the choice of a pair-count kernel stays in sets; verify alone also
    # calls each kernel, to check it against the oracle
    kernels = {"_choose_kernel", "_tiled_counts", "_transform_counts",
               "_merge_counts", "_dense_counts"}
    seen = {}
    for path in sorted(Path(sets.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ImportFrom)):
                names.update([node.name] if isinstance(node, ast.FunctionDef)
                             else [alias.name for alias in node.names])
        seen[path.stem] = names & kernels
    assert seen["sets"] == kernels and seen["verify"] >= kernels - {"_choose_kernel"}
    assert {stem for stem, named in seen.items() if named} == {"sets", "verify"}


def test_pair_counts_stay_integer():
    # every pair count is exact integer arithmetic: sets builds no complex
    # array, rounds nothing and reads no complex roots of unity
    names = set()
    for node in ast.walk(ast.parse(Path(sets.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant):  # dtype strings and 1j literals
            names.add(type(node.value).__name__ if isinstance(node.value, complex) else node.value)
    assert not names & {"complex", "complex64", "complex128", "rint", "conj", "roots"}


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
        members = set(S)
        expect = []
        for nu in (1, 2, 3):
            if pm[1] % nu or nu == pm[1]:
                continue
            F_nu = ctx.subfield(nu)
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
    expect = sorted({ctx.mul(a, b) for a in A for b in B})
    assert product_set(A, B).codes.tolist() == expect
    expect = sorted({ctx.add(a, b) for a in A for b in B})
    assert sum_set(A, B).codes.tolist() == expect
    expect = sorted({ctx.sub(a, b) for a in A for b in B})
    assert difference_set(A, B).codes.tolist() == expect
