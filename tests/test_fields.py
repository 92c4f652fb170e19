import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprodlab import fields
from sumprodlab.fields import (MAX_ORDER, Field, _poly_mod, _poly_mul, divisors, factorize,
                               is_prime, make_field, smallest_irreducible)

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


def test_numpy_integer_parameters():
    # numpy integers name the same shared context, held as Python ints
    assert make_field(np.int64(7)) is make_field(7)
    ctx = make_field(np.int64(7), np.int32(2))
    assert ctx is make_field(7, 2)
    assert type(ctx.p) is int and type(ctx.m) is int and type(ctx.q) is int
    assert type(Field(np.uint8(3), np.int64(2)).q) is int
    for args in ((True,), (7, True), (np.int64(6),), (7.0,), (7, 2.0), (np.float64(7),)):
        with pytest.raises(ValueError):
            make_field(*args)
        with pytest.raises(ValueError):
            Field(*args)


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
    for bad in (True, False, 2.0, np.int64(2), -1, "2"):
        with pytest.raises(ValueError):
            ctx.check(bad)

    class Code(int):
        pass

    assert ctx.check(Code(5)) == 5


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



@pytest.mark.parametrize("pm", [(2, 1), (7, 1), (251, 1), (2, 8), (3, 5), (5, 3), (7, 2)])
def test_trace_form_exhaustive(pm):
    # Tr(a * x) through the form (Tr(a * t^i))_i, for every a and x of a small field
    ctx = make_field(*pm)
    xs = np.arange(ctx.q)
    for a in range(ctx.q):
        got = ctx.vtrace(xs, a)
        assert got.dtype == np.int64
        assert np.array_equal(got, ctx.vtrace(ctx.vmul(a, xs)))
        assert got.tolist() == [ctx.trace(ctx.mul(a, x)) for x in range(ctx.q)]
        assert np.array_equal(ctx.vtrace(xs, form=ctx.trace_form(a)), got)


@pytest.mark.parametrize("pm", [(2, 14), (3, 9), (5, 6), (8191, 1), (999983, 1)])
def test_trace_form_sampled(pm):
    # 40 characters a times 50 codes x, with a = 0, a = 1 and x = 0 among them
    ctx = make_field(*pm)
    rng = np.random.default_rng(ctx.q)
    a_s = [0, 1, ctx.q - 1] + rng.integers(2, ctx.q, 37).tolist()
    xs = np.concatenate([[0, 1, ctx.q - 1], rng.integers(0, ctx.q, 47)])
    for a in a_s:
        got = ctx.vtrace(xs, a)
        assert np.array_equal(got, ctx.vtrace(ctx.vmul(a, xs)))
        assert got.tolist() == [ctx.trace(ctx.mul(a, int(x))) for x in xs]
    assert ctx.vtrace(xs.astype(np.int32), 5).tolist() == ctx.vtrace(xs, 5).tolist()
    with pytest.raises(ValueError):
        ctx.vtrace(xs, ctx.q)


def test_vtrace_memory_stays_below_four_arrays():
    # one quotient and the sum are alive at a time, not the m digit arrays
    # (the sum's reduction mod p adds one more array, after the quotients)
    ctx = make_field(3, 10)
    xs = np.arange(ctx.q, dtype=np.int64)
    expect = [ctx.trace(ctx.mul(7, int(x))) for x in xs[::97]]
    form = ctx.trace_form(7)
    assert ctx.m == 10 and sum(c != 0 for c in form) >= 4  # several digit passes
    tracemalloc.start()
    try:
        got = ctx.vtrace(xs, form=form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[::97].tolist() == expect
    assert peak < 3 * xs.nbytes


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


def test_subfield_degree_is_an_integer():
    # bools and non-integers are not degrees; numpy integers name the same subfield
    ctx = Field(3, 4)
    assert ctx.subfield(np.int64(2)) is ctx.subfield(2)
    for bad in (True, False, 2.0, "2", None):
        with pytest.raises(ValueError, match="does not divide the extension degree 4"):
            ctx.subfield(bad)
    with pytest.raises(ValueError, match="^3 does not divide the extension degree 4$"):
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
    # a block of 3 elements splits the doubling steps into many blocks; a
    # scalar run of 1 or 3 leaves the doubling steps to the array path
    ctx = make_field(*pm)
    for block, run in ((fields._BLOCK, fields._SCALAR_RUN), (fields._BLOCK, 1), (3, 3), (3, 1)):
        monkeypatch.setattr(fields, "_BLOCK", block)
        monkeypatch.setattr(fields, "_SCALAR_RUN", run)
        for h in (1, 2, ctx.q - 1, ctx.generator()):
            for count in (0, 1, 2, 3, 4, 5, 17, 40):
                got = ctx.powers(h, count)
                assert got.dtype == np.int64
                assert got.tolist() == [ctx.pow(h, k) for k in range(count)]
    with pytest.raises(ValueError):
        ctx.powers(np.int64(2), 3)


@pytest.mark.parametrize("pm", [(2, 1), (3, 4), (2, 10), (8191, 1)])
def test_generator_powers_match_powers_on_both_paths(pm):
    # before the table exists a request for less than half the unit group
    # doubles; the first request for half or more builds the table, and
    # every later request slices it
    ctx = Field(*pm)
    n, g = ctx.q - 1, ctx.generator()
    requests = [(count, step) for step in divisors(n)
                for count in sorted({0, 1, 2, n // step // 2, n // step}) if count <= n // step]
    small = [(count, step) for count, step in requests if 2 * count < n]

    def check(count, step):
        got = ctx.generator_powers(count, step)
        assert got.dtype == np.int64
        assert got.tolist() == ctx.powers(ctx.pow(g, step), count).tolist()

    for count, step in small:
        check(count, step)
    assert not hasattr(ctx, "_generator_table")
    for count, step in requests:
        check(count, step)
    table = ctx._generator_table
    assert table.dtype == np.int32 and not table.flags.writeable
    assert table.tolist() == ctx.powers(g, n).tolist()
    for count, step in small:
        check(count, step)
    for count, step in ((-1, 1), (n + 1, 1), (2, n), (1, 0)):
        with pytest.raises(ValueError, match="below q - 1"):
            ctx.generator_powers(count, step)


def test_corrupted_generator_table_fails_the_closure_check():
    # the subgroup of order 3 in GF(13) is read off the table at g^0, g^4,
    # g^8, and its generator h = g^4 too: a wrong g^4 or g^8 breaks g^8 * h = 1
    ctx = Field(13)
    ctx.generator_powers(ctx.q - 1)
    good = ctx._generator_table
    for i in (4, 8):
        bad = good.copy()
        bad[i] = good[i + 1]
        ctx._generator_table = fields._read_only(bad)
        with pytest.raises(RuntimeError, match="did not close"):
            ctx.unit_subgroup(3)
    ctx._generator_table = good
    codes, h = ctx.unit_subgroup(3)
    assert h == ctx.pow(ctx.generator(), 4)
    assert codes.tolist() == [ctx.pow(h, k) for k in range(3)]


def _literal_mul(ctx):
    """x * y by the dense polynomial helpers, sharing no code with mul or vmul."""
    p, m, f = ctx.p, ctx.m, ctx.modulus

    def mul(x, y):
        r = _poly_mod(_poly_mul(ctx.decode(x), ctx.decode(y), p), f, p)
        return ctx.encode(r + [0] * (m - len(r)))
    return mul


SMALL_FIELDS = [(p, m) for p in range(2, 257) if is_prime(p) for m in range(1, 9) if p ** m <= 256]


@pytest.mark.parametrize("pm", SMALL_FIELDS, ids=str)
def test_mul_matches_polynomials_exhaustively(pm):
    ctx = make_field(*pm)
    literal = _literal_mul(ctx)
    for x in ctx.elements():
        assert [ctx.mul(x, y) for y in ctx.elements()] == [literal(x, y) for y in ctx.elements()]


@pytest.mark.parametrize("pm", [(2, 14), (3, 9), (5, 6), (46337, 2), (2, 31)])
def test_mul_matches_polynomials_sampled(pm):
    # GF(46337^2) has the widest lanes (33 bits) and no spread table;
    # GF(2^31) has the most lanes
    ctx = make_field(*pm)
    literal = _literal_mul(ctx)
    rng = np.random.default_rng(sum(pm))
    xs = [0, 1, ctx.q - 1] + rng.integers(0, ctx.q, 2000).tolist()
    ys = [ctx.q - 1, ctx.q - 1, ctx.q - 1] + rng.integers(0, ctx.q, 2000).tolist()
    assert [ctx.mul(x, y) for x, y in zip(xs, ys)] == [literal(x, y) for x, y in zip(xs, ys)]


def _check_digitwise_add_sub(ctx, xs, ys):
    """Scalar add, sub, neg and vadd, vsub on the pairs zip(xs, ys), against
    encode of the digitwise sums and differences of decode."""
    p = ctx.p
    digits = {x: ctx.decode(x) for x in {*xs, *ys}}
    for sign, op, vop in ((1, ctx.add, ctx.vadd), (-1, ctx.sub, ctx.vsub)):
        want = [ctx.encode([(a + sign * b) % p for a, b in zip(digits[x], digits[y])])
                for x, y in zip(xs, ys)]
        assert [op(x, y) for x, y in zip(xs, ys)] == want
        assert vop(np.asarray(xs), np.asarray(ys)).tolist() == want
    for x, u in digits.items():
        assert ctx.neg(x) == ctx.encode([-a % p for a in u])


@pytest.mark.parametrize("pm", SMALL_FIELDS, ids=str)
def test_add_sub_match_digits_exhaustively(pm):
    ctx = make_field(*pm)
    _check_digitwise_add_sub(ctx, [x for x in ctx.elements() for _ in ctx.elements()],
                             list(ctx.elements()) * ctx.q)


@pytest.mark.parametrize("pm", [(2, 14), (3, 9), (5, 6), (46337, 2), (2, 31)])
def test_add_sub_match_digits_sampled(pm):
    ctx = make_field(*pm)
    rng = np.random.default_rng(sum(pm))
    xs = [0, 1, ctx.q - 1] + rng.integers(0, ctx.q, 2000).tolist()
    ys = [ctx.q - 1, ctx.q - 1, ctx.q - 1] + rng.integers(0, ctx.q, 2000).tolist()
    _check_digitwise_add_sub(ctx, xs, ys)


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


@pytest.mark.parametrize("pm", [(2, 14), (3, 9), (5, 6), (7, 4), (46337, 2), (2, 31),
                                (2 ** 31 - 1, 1)])
def test_digit_product_square_matches_general(pm):
    # the square path (dx is dy) forms each cross term once and doubles it;
    # GF(46337^2) has the largest coefficients, GF(2^31) the most digits,
    # and GF(2^31 - 1) products up to (p - 1)^2 in the one digit
    ctx = make_field(*pm)
    rng = np.random.default_rng(sum(pm))
    xs = np.concatenate([[0, 1, ctx.q - 1], rng.integers(0, ctx.q, 2000)])
    ys = np.concatenate([[ctx.q - 1, ctx.q - 1, ctx.q - 1], rng.integers(0, ctx.q, 2000)])
    dx = ctx._digits(xs)
    square = ctx._digit_product(dx, dx)
    general = ctx._digit_product(dx, [d.copy() for d in dx])
    assert len(square) == ctx.m
    for s, g in zip(square, general):
        assert np.array_equal(s, g) and s.min() >= 0 and s.max() < ctx.p
    assert np.array_equal(ctx._pack(square), ctx.vmul(xs, xs))
    assert ctx.vmul(xs, xs).tolist() == [ctx.mul(x, x) for x in xs.tolist()]
    assert ctx.vmul(xs, ys).tolist() == [ctx.mul(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert np.array_equal(ctx._digits(xs)[0], dx[0])  # the inputs are not written


def test_mod_takes_the_floor_remainder():
    xs = np.array([-7, -3, -1, 0, 1, 5, 2 ** 46 + 1], dtype=np.int64)
    assert fields._mod(xs.copy(), 3).tolist() == (xs % 3).tolist()
    assert fields._mod(np.int64(-7), 3) == 2


def test_field_has_no_instance_dict():
    # lazy tables live in write-once slots, so they never add a __dict__
    # that would slow every later attribute load
    for ctx in (Field(13), Field(3, 4)):
        g = ctx.generator()
        assert ctx.generator() == g and ctx.trace(ctx.q - 1) < ctx.p
        roots = ctx.roots
        assert ctx.roots is roots and not roots.flags.writeable
        ctx.generator_powers(ctx.q - 1)
        assert ctx._generator_table.size == ctx.q - 1
        assert not hasattr(ctx, "__dict__")
        with pytest.raises(AttributeError):
            ctx.cache = {}


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
