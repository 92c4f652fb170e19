"""Finite subsets of a field and the product/sum/shift/dilate algebra on them.

An ESet is immutable: its codes are one sorted, deduplicated, read-only
int64 array, which every kernel reads as it is and membership searches by
np.searchsorted; iterating a set yields Python ints.  It is built from
any iterable of integer codes, each one cleaned on its own, or from a 1-D
integer array, copied whole: as it is when strictly increasing, sorted and
deduplicated otherwise.  The set operations hand it their arrays.  All set
operations return new ESets and require both operands to live in the same
field.

Set operations and energies rest on one pair count, _pair_counts: how
often each op(x, y) occurs over X x Y.  It asks _choose_kernel which of
four exact kernels to run, and runs it:

- _tiled_counts ("tiles"): prime-field sums and differences, up to
  TABLE_LIMIT, when [0, p) splits into nb >= 2 intervals of about _TILE
  codes; each pair of intervals adds its local sums into one count array at
  the intervals' offset, with no modulo per pair;
- _transform_counts ("transform"): sums and differences in GF(p^m), m > 1,
  with q*p <= _BLOCK, once the pairs outweigh _TRANSFORM_RATIO transforms
  over the group Z_p^m; the transform is exact in int64 for every p, since
  it works mod a prime P > q with p | P - 1, so Z_P has p-th roots of unity;
- _merge_counts ("merge"): any op, merging sorted blocks of pairs; chosen
  above TABLE_LIMIT and when the pairs are few against q;
- _dense_counts ("dense"): any op, adding blocks of pairs into one array of
  q counts; chosen for the rest.

Each kernel runs on any input it admits, whatever the chooser would pick,
so tests and verify's oracle checks call each one directly.  Prime fields
have no FFT path, because a transform over a field near 10^6 needs more
memory than the exact counts.  Membership counts over many dilates (coset
scans, triple covers) are row sums of np.isin over blocks of products, in
_row_hits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import _BLOCK, TABLE_LIMIT, Field, _index, _mod, _read_only, divisors, is_prime

# Prime-field sum/difference tiles: the narrowest width and the fewest mean
# pairs per pair of tiles.  Measured on a 2-vCPU Xeon in GF(1000003): halving
# it (nb up to 31) left sweep_prime's speed within its noise, but E+(XX) at
# |X| = 77,136 went from 5.0 s to 6.1 s, because numpy's broadcast sum
# x[:, None] + y costs about 0.75 ns per pair for rows shorter than ~2,700
# and 0.35 ns above.
_TILE = 1 << 16
# The Z_p^m transform counts sums and differences once the broadcast's
# |X||Y|*width exceeds this many times m*p*q: measured on a 2-vCPU Xeon, a
# broadcast pair costs 0.7-0.9 ns per unit of width, and the three transforms
# 3-27 ns per m*p*q for q from 512 to 19683 (the most in small binary fields).
_TRANSFORM_RATIO = 16
# Pairs that no kernel above takes go to a sorted merge instead of the dense
# count over all q codes once q > _MERGE_BASE + _MERGE_RATIO * |X||Y|.
# Measured on a 2-vCPU Xeon beside the op itself: the merge costs about 19 us
# plus 30-40 ns per pair; the dense count cost 5 us plus 3-7 ns per code as a
# bincount, and 1.5-1.7 ns per code since it adds in place (q from 2^16 to
# 2^22), so this ratio now sends to the merge some counts the dense one wins.
_MERGE_BASE = 4096
_MERGE_RATIO = 8


def _code(c) -> int:
    """c as a Python int; numpy integers pass, bools and non-integers raise ValueError."""
    v = _index(c)
    if v is None:
        raise ValueError(f"{c!r} is not an element code")
    return v


class ESet:
    """Immutable subset of a field: one read-only int64 array of strictly increasing codes.

    codes is any iterable of integers, each cleaned by _code; a 1-D integer
    ndarray is copied whole instead, as it is when strictly increasing and
    sorted and deduplicated otherwise.  That is a sort and a mask rather
    than np.unique, whose first call in a process raised its peak memory by
    1.2 MB (numpy 2.4).
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: Field, codes):
        if isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.dtype.kind in "iu":
            codes = np.array(codes, dtype=np.int64)  # its own copy: no caller writes into the set
            if not (codes[1:] > codes[:-1]).all():
                codes.sort()
                codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        else:
            codes = sorted({_code(c) for c in codes})
        if len(codes) and (codes[0] < 0 or codes[-1] >= ctx.q):
            raise ValueError(f"element code out of range for {ctx!r}")
        self.ctx = ctx
        self.codes = _read_only(np.asarray(codes, dtype=np.int64))

    @classmethod
    def from_text(cls, ctx, text: str) -> "ESet":
        """Parse the CLI literal form, e.g. "1,2,4"."""
        toks = [t.strip() for t in text.split(",")]
        return cls(ctx, [int(t) for t in toks if t])

    def to_text(self) -> str:
        return ",".join(map(str, self.codes.tolist()))

    def __len__(self):
        return self.codes.size

    def __iter__(self):
        return iter(self.codes.tolist())

    def __bool__(self):
        return self.codes.size > 0

    def __eq__(self, other):
        return (isinstance(other, ESet) and self.ctx == other.ctx
                and np.array_equal(self.codes, other.codes))

    def __hash__(self):
        return hash((self.ctx, self.codes.tobytes()))

    def __repr__(self):
        return f"ESet({self.ctx!r}, {{{self.to_text()}}})"

    def __contains__(self, code):
        codes = self.codes
        i = np.searchsorted(codes, code)
        return bool(i < codes.size and codes[i] == code)


def _same_field(*sets):
    ctx = sets[0].ctx
    for s in sets[1:]:
        if s.ctx != ctx:
            raise ValueError("sets live in different fields")
    return ctx


def _merge(values, counts):
    """Sort values and add up the counts of equal ones.

    Equal values' counts are summed in any order, so the sort need not be
    stable: a stable argsort of 16,384 int64 took 1.5 ms, the default 0.3 ms.
    """
    order = np.argsort(values)
    values = values[order]
    first = np.flatnonzero(np.diff(values, prepend=-1))
    return values[first], np.add.reduceat(counts[order], first)


def _op_blocks(ctx: Field, xa, ya, op):
    """op(x, y) over xa x ya, in (rows, |ya|) blocks of about _BLOCK / ctx.width pairs."""
    rows = max(1, _BLOCK // (max(1, ya.size) * ctx.width))
    for i in range(0, xa.size, rows):
        yield op(ctx, xa[i:i + rows, None], ya[None, :])


def _row_hits(ctx: Field, xs, ys, targets):
    """For each x in xs, how many y in ys have x*y in targets: row sums of np.isin."""
    xa, ya, ta = (np.asarray(v, dtype=np.int64) for v in (xs, ys, targets))
    hits = [np.isin(z, ta).sum(axis=1) for z in _op_blocks(ctx, xa, ya, Field.vmul)]
    return np.concatenate([np.zeros(0, dtype=np.int64)] + hits)


def _tiled_counts(p: int, xs, ys, nb: int, negate: bool, same: bool):
    """Counts over Z_p of x + y, or of x - y when negate, for xs, ys in [0, p).

    [0, p) is cut into nb >= 1 intervals of width w.  A pair of intervals
    (a, b) adds its local sums (x - aw) + (y - bw), or its local differences
    (x - aw) + (w - (y - bw)), all below 2w, by np.add.at into a view of one
    count array of p + 2w codes, at offset (a + b)w, or (a - b - 1)w, mod p.
    The tail past p is folded into the head once, at the end.  So no pair
    pays a modulo, and no pair of intervals makes a window of its own.

    same says ys holds the same codes as xs.  Sums are then symmetric: the
    intervals (a, b) and (b, a) add the same local sums at the same offset,
    so only b <= a is visited and the pairs of b < a add 2.
    """
    w = -(-p // nb)
    xs = np.sort(xs)
    ys = xs if same else np.sort(ys)
    edges = np.arange(nb + 1, dtype=np.int64) * w
    xcut = np.searchsorted(xs, edges)
    ycut = np.searchsorted(ys, edges)
    xt = [xs[xcut[a]:xcut[a + 1]] - a * w for a in range(nb)]
    yt = [ys[ycut[b]:ycut[b + 1]] - b * w for b in range(nb)]
    symmetric = same and not negate
    if negate:
        yt = [w - y for y in yt]
    ext = np.zeros(p + 2 * w, dtype=np.int64)
    for a, xl in enumerate(xt):
        for b, yl in enumerate(yt[:a + 1] if symmetric else yt):
            if not (xl.size and yl.size):
                continue
            offset = ((a - b - 1) if negate else (a + b)) * w % p
            window = ext[offset:offset + 2 * w]
            step = 2 if symmetric and b < a else 1
            rows = max(1, _BLOCK // yl.size)
            for i in range(0, xl.size, rows):
                np.add.at(window, (xl[i:i + rows, None] + yl).ravel(), step)
    counts = ext[:p]
    tail = ext[p:2 * p]  # every code is below offset + 2w <= 2p, even where 2w = p + 1
    counts[:tail.size] += tail
    return counts


def _dft(ctx: Field):
    """(w, w_inv, P): the p x p transform over Z_p and its inverse, mod a prime P.

    P is the smallest prime above q with p | P - 1, so Z_P holds a p-th
    root of unity omega = a^((P - 1)/p), for the first a >= 2 that makes
    omega != 1.  w[j, k] = omega^(jk) and w_inv[j, k] = omega^(-jk) are int64,
    each entry taken in (-P/2, P/2], so p = 2 gives [[1, 1], [1, -1]]; their
    product is p times the identity mod P (Pollard, Math. Comp. 25, 1971).
    """
    p = ctx.p
    P = next(P for P in itertools.count(p * (ctx.q // p + 1) + 1, p) if is_prime(P))
    omega = next(r for r in (pow(a, (P - 1) // p, P) for a in range(2, P)) if r != 1)
    powers = [pow(omega, e, P) for e in range(p)]
    powers = np.array([v - P if 2 * v > P else v for v in powers], dtype=np.int64)
    jk = np.outer(np.arange(p), np.arange(p))
    return powers[jk % p], powers[-jk % p], P


def _transform(x, w, m, P, scratch):
    """Apply w along each of the m digit axes of x (length p^m) mod P, in place.

    Each step applies w to the leading axis of x viewed as (p, p^(m-1)),
    reduces mod P into [0, P) and writes the result back transposed, which
    rotates the digit axes; after m steps every axis has been transformed
    once and they are back in order.  A step sums p products of an entry of
    w, at most P/2 in size, and one of x, in [0, P): below p*P^2/2, which
    is under 2^39 for every field with q*p <= _BLOCK, so int64 is exact.
    """
    p = w.shape[0]
    for _ in range(m):
        np.einsum("jk,kn->jn", w, x.reshape(p, -1), out=scratch.reshape(p, -1))
        x.reshape(-1, p)[...] = _mod(scratch, P).reshape(p, -1).T
    return x


def _transform_counts(ctx: Field, xa, ya, same: bool, negate: bool):
    """Counts over Z_p^m of x + y, or of x - y when negate, by exact transforms mod P.

    A count is a convolution over the additive group Z_p^m, so it is the
    inverse transform of the product of the inputs' transforms (Tao-Vu,
    Additive Combinatorics, ch. 4).  That identity holds in Z_P as it does
    over the complex numbers, with _dft's P and root omega; every count is
    at most q < P, so its residue mod P is the count itself.  The sum of
    one set with itself (same says ya is xa) squares that set's transform;
    every other case multiplies it by the transform of Y, or of -Y for
    differences.  The inverse transform times q^(-1) mod P gives the counts.
    """
    q, m = ctx.q, ctx.m
    w, w_inv, P = _dft(ctx)
    scratch = np.empty(q, dtype=np.int64)
    fx = np.zeros(q, dtype=np.int64)
    np.add.at(fx, xa, 1)
    _transform(fx, w, m, P, scratch)
    if same and not negate:
        fx *= fx
    else:
        fy = np.zeros(q, dtype=np.int64)
        np.add.at(fy, ctx.vsub(0, ya) if negate else ya, 1)
        fx *= _transform(fy, w, m, P, scratch)
        del fy
    _transform(_mod(fx, P), w_inv, m, P, scratch)
    del scratch
    fx *= pow(q, -1, P)
    return _mod(fx, P)


def _merge_counts(ctx: Field, xa, ya, op):
    """(values, counts) of op(x, y) over xa x ya: blocks of pairs merged into sorted values.

    Any op and any q; what it holds grows with the distinct values, not with q.
    """
    values = counts = np.zeros(0, dtype=np.int64)
    for z in _op_blocks(ctx, xa, ya, op):
        values, counts = _merge(np.concatenate([values, z], axis=None),
                                np.concatenate([counts, np.ones_like(z)], axis=None))
    return values, counts


def _dense_counts(ctx: Field, xa, ya, op):
    """Counts over the q codes of op(x, y) over xa x ya, for q <= TABLE_LIMIT.

    Any op; blocks of op(x, y) are added by np.add.at into one array of q
    counts, so no second q-length array is made.
    """
    counts = np.zeros(ctx.q, dtype=np.int64)
    for z in _op_blocks(ctx, xa, ya, op):
        np.add.at(counts, z.ravel(), 1)
    return counts


def _tile_count(p: int, nx: int, ny: int) -> int:
    """The tiles' nb for |X| = nx, |Y| = ny: min(ceil(p / _TILE), isqrt(nx*ny / _TILE)), at least 1.

    Each interval is then at least about _TILE wide, and a pair of
    intervals holds _TILE pairs on average.  The chooser takes the tiles
    only at nb >= 2; the floor of 1 lets them run on any sizes when called.
    """
    return max(1, min(-(-p // _TILE), math.isqrt(nx * ny // _TILE)))


def _choose_kernel(ctx: Field, op, nx: int, ny: int) -> str:
    """The kernel _pair_counts runs for op over |X| = nx, |Y| = ny in ctx.

    - "tiles": prime fields up to TABLE_LIMIT, vadd and vsub, when
      nb = _tile_count(p, nx, ny) >= 2;
    - "transform": m > 1, vadd and vsub, q*p <= _BLOCK and nx*ny*width
      above _TRANSFORM_RATIO * m*p*q; it is exact mod a prime P > q, so
      q*p <= _BLOCK bounds only its memory;
    - "merge": every other count where q > TABLE_LIMIT, so that a count per
      code would not fit, or where the pairs are few against q:
      q > _MERGE_BASE + _MERGE_RATIO * nx*ny;
    - "dense": the rest (products, and sums and differences that no kernel
      above takes).
    """
    if op in (Field.vadd, Field.vsub):
        if ctx.m == 1:
            if ctx.q <= TABLE_LIMIT and _tile_count(ctx.p, nx, ny) >= 2:
                return "tiles"
        elif (ctx.q * ctx.p <= _BLOCK
              and nx * ny * ctx.width > _TRANSFORM_RATIO * ctx.m * ctx.p * ctx.q):
            return "transform"
    if ctx.q > TABLE_LIMIT or ctx.q > _MERGE_BASE + _MERGE_RATIO * nx * ny:
        return "merge"
    return "dense"


def _pair_counts(ctx: Field, xs, ys, op):
    """(values, counts): the distinct op(x, y) over xs x ys, ascending, and how often each occurs.

    xs and ys are int64 code arrays, such as ESet.codes; op is one of Field's
    array operations, called as op(ctx, x, y).  The kernel is the one
    _choose_kernel names; every kernel is exact, the transform included,
    since it counts mod a prime P > q.

    Prime fields have no FFT path: an rfft/irfft pair of length 2^21 (p near
    10^6) raised a process's peak memory from 35 MB to 123 MB, while the
    tiled count's one array holds p + 2w counts, 2w = 2 ceil(p / nb).
    """
    same, negate = ys is xs, op is Field.vsub
    kernel = _choose_kernel(ctx, op, xs.size, ys.size)
    if kernel == "tiles":
        counts = _tiled_counts(ctx.p, xs, ys, _tile_count(ctx.p, xs.size, ys.size), negate, same)
    elif kernel == "transform":
        counts = _transform_counts(ctx, xs, ys, same, negate)
    elif kernel == "merge":
        return _merge_counts(ctx, xs, ys, op)
    else:
        counts = _dense_counts(ctx, xs, ys, op)
    values = np.flatnonzero(counts)
    return values, counts[values]


def _support(A: ESet, B: ESet, op) -> ESet:
    ctx = _same_field(A, B)
    values, _ = _pair_counts(ctx, A.codes, B.codes, op)
    return ESet(ctx, values)


def product_set(A: ESet, B: ESet) -> ESet:
    """{a*b : a in A, b in B}."""
    return _support(A, B, Field.vmul)


def sum_set(A: ESet, B: ESet) -> ESet:
    """{a+b : a in A, b in B}."""
    return _support(A, B, Field.vadd)


def difference_set(A: ESet, B: ESet) -> ESet:
    """{a-b : a in A, b in B}."""
    return _support(A, B, Field.vsub)


def shift(A: ESet, d) -> ESet:
    """A + d; a bijection, so the size is preserved."""
    ctx = A.ctx
    ctx.check(d)
    return ESet(ctx, ctx.vadd(A.codes, d))


def dilate(A: ESet, alpha) -> ESet:
    """alpha * A for alpha != 0; a bijection, so the size is preserved."""
    ctx = A.ctx
    ctx.check(alpha)
    if alpha == 0:
        raise ValueError("dilation by 0 collapses the set")
    return ESet(ctx, ctx.vmul(alpha, A.codes))


@dataclass(frozen=True)
class CosetStat:
    """Intersection of the scanned set with one subfield coset c*F."""

    nu: int
    c: int
    intersection: int
    threshold: float


def coset_scan(S: ESet, threshold_exponent: float, base: str = "subfield_size"):
    """Intersection sizes of S with every multiplicative coset of every proper subfield.

    For each proper subfield F (degree nu properly dividing m) the cosets are
    c*F for c = g^j, j in [0, (q-1)/(p^nu - 1)); note c*F keeps 0, and two
    cosets overlap exactly in 0.  Each coset contributes a CosetStat with the
    threshold len(F)**e (base="subfield_size") or len(S)**e (base="set_size");
    the scan passes when every intersection is <= its threshold.

    The two parameterizations used elsewhere in the package: exponent 1/2
    against the subfield size (small overlap with every dilated subfield),
    and exponent 9/11 against the set size (large-overlap obstruction).

    Prime fields have no proper subfields, so m = 1 passes vacuously with an
    empty stat list.  Returns (stats, ok).
    """
    if base not in ("subfield_size", "set_size"):
        raise ValueError(f"unknown threshold base {base!r}")
    if len(S) == 0:
        raise ValueError("coset scan needs a nonempty set")
    ctx = S.ctx
    stats: list[CosetStat] = []
    ok = True
    for nu in divisors(ctx.m)[:-1]:
        F = ctx.subfield(nu)
        reps = ctx.generator_powers((ctx.q - 1) // (ctx.p ** nu - 1))
        thr = float(len(F) if base == "subfield_size" else len(S)) ** threshold_exponent
        inter = _row_hits(ctx, reps, F.codes, S.codes).tolist()
        stats += [CosetStat(nu, c, k, thr) for c, k in zip(reps.tolist(), inter)]
        ok = ok and max(inter) <= thr
    return stats, ok
