"""Finite subsets of a field and the product/sum/shift/dilate algebra on them.

An ESet is immutable: one sorted tuple of element codes, which membership
searches by bisection.  It is built from any iterable of integer codes,
each one cleaned on its own, or from a 1-D integer array, taken whole:
as it is when strictly increasing, sorted and deduplicated otherwise.  The
set operations hand it their arrays.  All set operations return new ESets
and require both operands to live in the same field.

Set operations and energies rest on one pair count, _pair_counts, with
four exact paths: prime-field sums and differences that split into two or
more tiles add each pair of tiles' local sums into one count array at the
tiles' offset, with no modulo per pair; sums and differences of large sets
in GF(p^m), m > 1, multiply transforms over the group Z_p^m; every other
count, products and sums alike, merges sorted blocks in fields above 2^22
and when its pairs are few against q, and adds its blocks into q counts in
place otherwise.  Prime fields have no FFT path, because a transform over a
field near 10^6 needs more memory than the exact counts.
Membership counts over many dilates (coset scans, triple covers) are row
sums of np.isin over blocks of products, in _row_hits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fields import _BLOCK, TABLE_LIMIT, Field, _index

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
# 6-18 ns per m*p*q for q from 512 to 19683 (the most in the smallest fields).
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
    """Immutable subset of a field: one tuple of strictly increasing element codes.

    codes is any iterable of integers, each cleaned by _code; a 1-D integer
    ndarray is taken whole instead, as it is when strictly increasing and
    sorted and deduplicated otherwise.  That is np.sort and a mask rather
    than np.unique, whose first call in a process raised its peak memory by
    1.2 MB (numpy 2.4).
    """

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: Field, codes):
        if isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.dtype.kind in "iu":
            if not (codes[1:] > codes[:-1]).all():
                codes = np.sort(codes)
                codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
            cleaned = codes.tolist()
        else:
            cleaned = sorted({_code(c) for c in codes})
        if cleaned and (cleaned[0] < 0 or cleaned[-1] >= ctx.q):
            raise ValueError(f"element code out of range for {ctx!r}")
        self.ctx = ctx
        self.codes = tuple(cleaned)

    @classmethod
    def from_text(cls, ctx, text: str) -> "ESet":
        """Parse the CLI literal form, e.g. "1,2,4"."""
        toks = [t.strip() for t in text.split(",")]
        return cls(ctx, [int(t) for t in toks if t])

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def __bool__(self):
        return bool(self.codes)

    def __eq__(self, other):
        return isinstance(other, ESet) and self.ctx == other.ctx and self.codes == other.codes

    def __hash__(self):
        return hash((self.ctx, self.codes))

    def __repr__(self):
        return f"ESet({self.ctx!r}, {{{self.to_text()}}})"

    def __contains__(self, code):
        codes = self.codes
        i = bisect_left(codes, code)
        return i < len(codes) and codes[i] == code


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

    [0, p) is cut into nb >= 2 intervals of width w.  A pair of intervals
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
    """The p x p transform matrix over Z_p: [[1, 1], [1, -1]] in int64 for p = 2,
    the complex p-th roots of unity w[j, k] = exp(2*pi*i * jk / p) otherwise."""
    p = ctx.p
    if p == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    k = np.arange(p)
    return ctx.roots[np.outer(k, k) % p]


def _transform(x, w, m, scratch):
    """Apply w along each of the m digit axes of x (length p^m), in place.

    Each step applies w to the leading axis of x viewed as (p, p^(m-1)) and
    writes the result back transposed, which rotates the digit axes; after
    m steps every axis has been transformed once and they are back in order.
    The product is an einsum, not a matmul: a complex matmul goes to BLAS,
    whose first call alone raised a process's peak memory by 0.4 MB.
    """
    p = w.shape[0]
    for _ in range(m):
        np.einsum("jk,kn->jn", w, x.reshape(p, -1), out=scratch.reshape(p, -1))
        x.reshape(-1, p)[...] = scratch.reshape(p, -1).T
    return x


def _transform_counts(ctx: Field, xa, ya, same: bool, negate: bool):
    """Counts over Z_p^m of x + y, or of x - y when negate, by transforms; None if inexact.

    A count is a convolution over the additive group Z_p^m, so it is the
    inverse transform of the product of the inputs' transforms (Tao-Vu,
    Additive Combinatorics, ch. 4); same says ya is xa, which is transformed
    once.  For p = 2 the transform is Walsh-Hadamard in int64, exact: values
    stay below q^3 <= 2^57 while q*p <= _BLOCK, and the inverse divides by q
    with a shift.  For odd p it is complex and the counts are rounded; None
    is returned when a residual reaches 0.25, for the caller to count by
    broadcast instead.
    """
    q, m = ctx.q, ctx.m
    w = _dft(ctx)
    scratch = np.empty(q, dtype=w.dtype)
    fx = np.zeros(q, dtype=w.dtype)
    np.add.at(fx, xa, 1)
    _transform(fx, w, m, scratch)
    if same:
        fx *= fx.conj() if negate else fx  # the transform of -X conjugates that of X
    else:
        fy = np.zeros(q, dtype=w.dtype)
        np.add.at(fy, ctx.vsub(0, ya) if negate else ya, 1)
        fx *= _transform(fy, w, m, scratch)
        del fy
    _transform(fx, w.conj(), m, scratch)
    del scratch
    if ctx.p == 2:
        return fx >> m
    fx /= q
    counts = np.rint(fx.real)
    fx.real -= counts
    if np.abs(fx).max() >= 0.25:
        return None
    del fx
    return counts.astype(np.int64)


def _pair_counts(ctx: Field, xs, ys, op):
    """(values, counts): the distinct op(x, y) over xs x ys, ascending, and how often each occurs.

    op is one of Field's array operations, called as op(ctx, x, y).  This is
    the one place that picks a kernel, by the field, the op and the sizes:

    - prime fields up to TABLE_LIMIT, vadd and vsub, when [0, p) splits into
      nb = min(ceil(p / _TILE), isqrt(|X||Y| / _TILE)) >= 2 intervals, each
      at least about _TILE wide, with _TILE pairs per pair of intervals on
      average: _tiled_counts, which needs no modulo per pair and adds every
      pair of intervals straight into one array of p + 2w counts (for the
      sums of a set with itself, passed as the same object, it visits half
      the tile pairs);
    - m > 1, vadd and vsub, q*p <= _BLOCK and |X||Y|*width above
      _TRANSFORM_RATIO * m*p*q: _transform_counts over Z_p^m, falling back
      to the two paths below if its rounding is not exact;
    - otherwise, q > TABLE_LIMIT, where a count per code would not fit, or
      few pairs against q (q > _MERGE_BASE + _MERGE_RATIO * |X||Y|): blocks
      of pairs go to a sorted merge;
    - otherwise (products, and sums and differences that the kernels above
      do not take): blocks of op(x, y) are added by np.add.at into one array
      of q counts, so no second q-length array is made.

    Prime fields have no FFT path: an rfft/irfft pair of length 2^21 (p near
    10^6) raised a process's peak memory from 35 MB to 123 MB, while the
    tiled count's one array holds p + 2w counts, 2w = 2 ceil(p / nb).
    """
    xa = np.asarray(xs, dtype=np.int64)
    ya = np.asarray(ys, dtype=np.int64)
    counts = None
    if op in (Field.vadd, Field.vsub):
        if ctx.m == 1:
            nb = min(-(-ctx.p // _TILE), math.isqrt(xa.size * ya.size // _TILE))
            if nb >= 2 and ctx.q <= TABLE_LIMIT:
                counts = _tiled_counts(ctx.p, xa, ya, nb, op is Field.vsub, ys is xs)
        elif (ctx.q * ctx.p <= _BLOCK and xa.size * ya.size * ctx.width
              > _TRANSFORM_RATIO * ctx.m * ctx.p * ctx.q):
            counts = _transform_counts(ctx, xa, ya, ys is xs, op is Field.vsub)
    if counts is None:
        if ctx.q > TABLE_LIMIT or ctx.q > _MERGE_BASE + _MERGE_RATIO * xa.size * ya.size:
            values = counts = np.zeros(0, dtype=np.int64)
            for z in _op_blocks(ctx, xa, ya, op):
                values, counts = _merge(np.concatenate([values, z], axis=None),
                                        np.concatenate([counts, np.ones_like(z)], axis=None))
            return values, counts
        counts = np.zeros(ctx.q, dtype=np.int64)
        for z in _op_blocks(ctx, xa, ya, op):
            np.add.at(counts, z.ravel(), 1)
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
    if ctx.m == 1:
        return stats, ok
    for nu in range(1, ctx.m):
        if ctx.m % nu != 0:
            continue
        F = ctx.subfield(nu)
        reps = ctx.generator_powers((ctx.q - 1) // (ctx.p ** nu - 1))
        thr = float(len(F) if base == "subfield_size" else len(S)) ** threshold_exponent
        inter = _row_hits(ctx, reps, F.codes, S.codes).tolist()
        stats += [CosetStat(nu, c, k, thr) for c, k in zip(reps.tolist(), inter)]
        ok = ok and max(inter) <= thr
    return stats, ok
