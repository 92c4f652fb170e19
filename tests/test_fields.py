import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import fields
from sumprodlab.fields import (MAX_ORDER, Field, divisors, factorize, is_prime,
                               make_field, smallest_irreducible)

# fields used across the hypothesis properties; small enough to stay fast
FIELD_POOL = [(2, 1), (5, 1), (13, 1), (97, 1), (2, 4), (3, 2), (3, 3), (7, 2)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)
    assert not is_prime(1_000_003 * 1_000_033)


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    with pytest.raises(ValueError):
        factorize(0)


def test_modulus_is_deterministic_and_minimal():
    # for GF(9) the first irreducible candidate is t^2 + 1 (low vector value 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    # for GF(4): t^2 + t + 1 is the only irreducible quadratic
    assert make_field(2, 2).modulus == (1, 1, 1)
    # for GF(16): t^4 + t + 1 (low vector value 3; values 0..2 are reducible)
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert make_field(7).modulus == (0, 1)
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(5, 0)
    with pytest.raises(ValueError):
        Field(2, 32)  # q = 2^32 > MAX_ORDER
    assert 2 ** 31 == MAX_ORDER
    # sizes are rejected before p ** m and Miller-Rabin run, which would take
    # seconds here, and the message does not print the digits of p
    start = time.perf_counter()
    for args in ((3, 10 ** 8), (2 ** 13000 + 1,)):
        with pytest.raises(ValueError, match=r"^field order exceeds the supported limit 2\^31$"):
            Field(*args)
    assert time.perf_counter() - start < 1.0


def test_make_field_is_cached():
    assert make_field(5, 1) is make_field(5, 1)
    assert make_field(5, 1) == Field(5)
    assert make_field(5, 1) != make_field(5, 2)


def test_encode_decode_roundtrip():
    ctx = make_field(3, 3)
    for x in ctx.elements():
        assert ctx.encode(ctx.decode(x)) == x
    assert ctx.decode(5) == (2, 1, 0)
    with pytest.raises(ValueError):
        ctx.encode((3, 0, 0))
    with pytest.raises(ValueError):
        ctx.encode((0, 0))
    with pytest.raises(ValueError):
        ctx.check(27)
    with pytest.raises(ValueError):
        ctx.check(True)


def test_gf9_arithmetic_by_hand():
    # codes: a0 + 3*a1 for a0 + a1*t, t^2 = -1
    ctx = make_field(3, 2)
    t = 3
    assert ctx.mul(t, t) == 2         # t^2 = -1 = 2
    assert ctx.add(4, 8) == 0         # (1+t) + (2+2t) = 0
    assert ctx.sub(1, t) == ctx.add(1, ctx.neg(t))
    assert ctx.neg(0) == 0
    assert ctx.inv(t) == ctx.mul(2, t)  # t * 2t = 2t^2 = -2 = 1
    assert ctx.pow(4, 8) == 1
    assert ctx.pow(0, 5) == 0
    with pytest.raises(ValueError):
        ctx.inv(0)
    with pytest.raises(ValueError):
        ctx.pow(2, -1)


def test_generator_frozen():
    assert make_field(5).generator() == 2
    assert make_field(7).generator() == 3
    assert make_field(2).generator() == 1
    assert make_field(3, 2).generator() == 4   # codes 2 and 3 have orders 2 and 4
    assert make_field(2, 4).generator() == 2


def test_generator_has_full_order():
    for p, m in FIELD_POOL:
        ctx = make_field(p, m)
        g = ctx.generator()
        n = ctx.q - 1
        assert ctx.pow(g, n) == 1
        for ell, _ in factorize(n) if n > 1 else []:
            assert ctx.pow(g, n // ell) != 1
    for ctx in (make_field(13), make_field(3, 4)):
        # exhaustively, mul(g^i, g^j) = g^((i + j) mod (q - 1))
        n = ctx.q - 1
        gpow = ctx.powers(ctx.generator(), n).tolist()
        assert sorted(gpow) == list(range(1, ctx.q))
        for i, x in enumerate(gpow):
            for j, y in enumerate(gpow):
                assert ctx.mul(x, y) == gpow[(i + j) % n]


def test_trace_frozen_and_linear():
    ctx = make_field(3, 2)
    assert ctx.trace(3) == 0   # Tr(t) = t + t^3 = t - t = 0
    assert ctx.trace(1) == 2   # Tr(1) = m * 1
    assert make_field(11).trace(7) == 7
    ctx16 = make_field(2, 4)
    for x in ctx16.elements():
        for y in ctx16.elements():
            if (x + y) % 5 == 0:  # thin but deterministic sample of pairs
                assert ctx16.trace(ctx16.add(x, y)) == (ctx16.trace(x) + ctx16.trace(y)) % 2


def test_additive_char():
    ctx = make_field(5)
    z = ctx.additive_char(1, 1)
    assert abs(z - complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-15
    assert abs(ctx.additive_char(0, 3) - 1) < 1e-15
    # full-field character sum vanishes for a != 0
    total = sum(ctx.additive_char(2, x) for x in ctx.elements())
    assert abs(total) < 1e-12


def test_subfield_frozen():
    ctx = make_field(2, 4)
    assert list(ctx.subfield(2).codes) == [0, 1, 6, 7]
    assert list(ctx.subfield(1).codes) == [0, 1]
    assert ctx.subfield(2) is ctx.subfield(2)  # cached
    with pytest.raises(ValueError):
        ctx.subfield(3)


def test_subfield_is_multiplicatively_closed():
    ctx = make_field(3, 3)
    F = ctx.subfield(1)
    assert len(F) == 3
    for a in F.codes:
        for b in F.codes:
            assert ctx.mul(a, b) in F
            assert ctx.add(a, b) in F


@pytest.mark.parametrize("pm", [(13, 1), (2, 4), (3, 3), (7, 2)])
def test_powers_by_doubling(pm, monkeypatch):
    # a block of 3 elements splits the doubling steps into many blocks
    ctx = make_field(*pm)
    for block in (None, 3):
        if block is not None:
            monkeypatch.setattr(fields, "_BLOCK", block)
        for h in (1, 2, ctx.q - 1, ctx.generator()):
            for count in (0, 1, 2, 5, 17, 40):
                got = ctx.powers(h, count)
                assert got.dtype == np.int64
                assert got.tolist() == [ctx.pow(h, k) for k in range(count)]
    with pytest.raises(ValueError):
        ctx.powers(np.int64(2), 3)


@pytest.mark.parametrize("pm", [(2, 2), (2, 7), (2, 14), (3, 9), (5, 6), (7, 4), (13, 3)])
def test_vmul_matches_scalar_mul(pm):
    # high coefficients are folded one at a time; check every shape that
    # broadcasts: grid, scalar against a vector, and elementwise
    ctx = make_field(*pm)
    rng = np.random.default_rng(sum(pm))
    xs = np.concatenate([[0, 1, ctx.q - 1], rng.integers(0, ctx.q, 9)])
    ys = np.concatenate([[0, 1, ctx.q - 1], rng.integers(0, ctx.q, 5)])
    grid = ctx.vmul(xs[:, None], ys[None, :])
    assert grid.dtype == np.int64
    assert grid.tolist() == [[ctx.mul(int(a), int(b)) for b in ys] for a in xs]
    assert ctx.vmul(int(xs[-1]), ys).tolist() == [ctx.mul(int(xs[-1]), int(b)) for b in ys]
    assert ctx.vmul(xs[:8], ys).tolist() == [ctx.mul(int(a), int(b)) for a, b in zip(xs, ys)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELD_POOL), st.data())
def test_field_axioms(pm, data):
    ctx = make_field(*pm)
    pick = st.integers(min_value=0, max_value=ctx.q - 1)
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
    assert ctx.add(x, ctx.neg(x)) == 0
    assert ctx.mul(x, 1) == x
    if x:
        assert ctx.mul(x, ctx.inv(x)) == 1
    # Frobenius is additive in characteristic p
    p = ctx.p
    assert ctx.pow(ctx.add(x, y), p) == ctx.add(ctx.pow(x, p), ctx.pow(y, p))
    # the array operations agree with the scalar ones over a broadcast grid
    xs = [0, ctx.q - 1, x, y]
    ys = [0, ctx.q - 1, y, z, 1]
    grid = np.asarray(xs)[:, None], np.asarray(ys)[None, :]
    for vop, op in ((ctx.vadd, ctx.add), (ctx.vsub, ctx.sub), (ctx.vmul, ctx.mul)):
        assert vop(*grid).tolist() == [[op(a, b) for b in ys] for a in xs]
