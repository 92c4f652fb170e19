"""Finite subsets of a field and the product/sum/shift/dilate algebra on them.

An ESet is immutable: one sorted tuple of element codes, which membership
searches by bisection.  All set operations return new ESets and require
both operands to live in the same field.

Set operations and energies rest on one pair count, _pair_counts, with
four exact paths: sums and differences in a prime field count tile by tile
into cache-sized windows, with no modulo per pair; sums and differences of
large sets in GF(p^m), m > 1, multiply transforms over the group Z_p^m;
products, and small sets in GF(p^m), bincount over all q codes; fields
above 2^22 merge sorted blocks.  Prime fields have no FFT path, because a
transform over a field near 10^6 needs more memory than the exact counts.
Membership counts over many dilates (coset scans, triple covers) are row
sums of np.isin over blocks of products, in _row_hits.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .fields import _BLOCK, TABLE_LIMIT, Field

_TILE = 1 << 16  # prime-field sum/difference tiles: narrowest width, fewest mean pairs
# The Z_p^m transform counts sums and differences once the broadcast's
# |X||Y|*width exceeds this many times m*p*q: measured on a 2-vCPU Xeon, a
# broadcast pair costs 0.7-0.9 ns per unit of width, and the three transforms
# 6-18 ns per m*p*q for q from 512 to 19683 (the most in the smallest fields).
_TRANSFORM_RATIO = 16


def _code(c) -> int:
    """c as a Python int; numpy integers pass, bools and non-integers raise ValueError."""
    try:
        if not isinstance(c, bool):
            return operator.index(c)
    except TypeError:
        pass
    raise ValueError(f"{c!r} is not an element code")


class ESet:
    """Immutable subset of a field: one tuple of strictly increasing element codes."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: Field, codes):
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
    """Sort values and add up the counts of equal ones."""
    order = np.argsort(values, kind="stable")
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


def _tiled_counts(p: int, xs, ys, negate: bool, same: bool):
    """Counts over Z_p of x + y, or of x - y when negate, for xs, ys in [0, p).

    [0, p) is cut into nb intervals of width w.  A pair of intervals (a, b)
    bincounts its local sums (x - aw) + (y - bw), or its local differences
    (x - aw) + (w - (y - bw)), into a window of 2w codes and adds the window
    at offset (a + b)w, or (a - b - 1)w, mod p.  So no pair pays a modulo,
    and each bincount writes into a window of 2w codes instead of scattering
    over all p counts.  nb is at most ceil(p / _TILE), so w is at least
    about _TILE, and at most sqrt(|X||Y| / _TILE), so a pair of intervals
    holds _TILE pairs on average.  With nb = 1 the window would be 2p long;
    the sums are folded below p instead.

    same says ys holds the same codes as xs.  Sums are then symmetric: the
    intervals (a, b) and (b, a) give the same window, so only b <= a is
    visited and the window of b < a is added twice.
    """
    nb = max(1, min(-(-p // _TILE), math.isqrt(xs.size * ys.size // _TILE)))
    w = -(-p // nb)
    if nb == 1:  # one interval: no sort, which small sets would pay per call
        xt, yt = [xs], [ys]
    else:
        xs = np.sort(xs)
        ys = xs if same else np.sort(ys)
        edges = np.arange(nb + 1, dtype=np.int64) * w
        xcut = np.searchsorted(xs, edges)
        ycut = np.searchsorted(ys, edges)
        xt = [xs[xcut[a]:xcut[a + 1]] - a * w for a in range(nb)]
        yt = [ys[ycut[b]:ycut[b + 1]] - b * w for b in range(nb)]
    symmetric = same and not negate and nb > 1
    if negate:
        yt = [w - y for y in yt]
    counts = np.zeros(p, dtype=np.int64)
    for a, xl in enumerate(xt):
        for b, yl in enumerate(yt[:a + 1] if symmetric else yt):
            if not (xl.size and yl.size):
                continue
            offset = ((a - b - 1) if negate else (a + b)) * w % p
            rows = max(1, _BLOCK // yl.size)
            for i in range(0, xl.size, rows):
                z = (xl[i:i + rows, None] + yl).ravel()
                if nb == 1:
                    z[z >= p] -= p
                    counts += np.bincount(z, minlength=p)
                else:
                    window = np.bincount(z, minlength=2 * w)
                    if symmetric and b < a:
                        window *= 2
                    head = min(window.size, p - offset)
                    counts[offset:offset + head] += window[:head]
                    # 2w <= p + 1 when nb >= 2, so a window wraps at most once
                    counts[:window.size - head] += window[head:]
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

    op is one of Field's array operations, called as op(ctx, x, y).  Four
    exact paths, chosen by the field, the op and the sizes:

    - q > TABLE_LIMIT: blocks of pairs go to a sorted merge, since a count
      per code would not fit;
    - prime fields, vadd and vsub: _tiled_counts, which bincounts cache-sized
      windows and needs no modulo per pair (for the sums of a set with
      itself, passed as the same object, it visits half the tile pairs);
    - m > 1, vadd and vsub, q*p <= _BLOCK and |X||Y|*width above
      _TRANSFORM_RATIO * m*p*q: _transform_counts over Z_p^m, falling back
      to the bincount below if its rounding is not exact;
    - otherwise (vmul, or small sets for m > 1): blocks of op(x, y) go to a
      bincount over all q codes.

    Prime fields have no FFT path: an rfft/irfft pair of length 2^21 (p near
    10^6) raised a process's peak memory from 35 MB to 123 MB, while no array
    of the tiled count is longer than the p counts themselves.
    """
    xa = np.asarray(xs, dtype=np.int64)
    ya = np.asarray(ys, dtype=np.int64)
    if ctx.q > TABLE_LIMIT:
        values = counts = np.zeros(0, dtype=np.int64)
        for z in _op_blocks(ctx, xa, ya, op):
            values, counts = _merge(np.concatenate([values, z], axis=None),
                                    np.concatenate([counts, np.ones_like(z)], axis=None))
        return values, counts
    counts = None
    if op in (Field.vadd, Field.vsub):
        if ctx.m == 1:
            counts = _tiled_counts(ctx.p, xa, ya, op is Field.vsub, ys is xs)
        elif (ctx.q * ctx.p <= _BLOCK and xa.size * ya.size * ctx.width
              > _TRANSFORM_RATIO * ctx.m * ctx.p * ctx.q):
            counts = _transform_counts(ctx, xa, ya, ys is xs, op is Field.vsub)
    if counts is None:
        counts = np.zeros(ctx.q, dtype=np.int64)
        for z in _op_blocks(ctx, xa, ya, op):
            counts += np.bincount(z.ravel(), minlength=ctx.q)
    values = np.flatnonzero(counts)
    return values, counts[values]


def _support(A: ESet, B: ESet, op) -> ESet:
    ctx = _same_field(A, B)
    values, _ = _pair_counts(ctx, A.codes, B.codes, op)
    return ESet(ctx, values.tolist())


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
    return ESet(ctx, ctx.vadd(A.codes, d).tolist())


def dilate(A: ESet, alpha) -> ESet:
    """alpha * A for alpha != 0; a bijection, so the size is preserved."""
    ctx = A.ctx
    ctx.check(alpha)
    if alpha == 0:
        raise ValueError("dilation by 0 collapses the set")
    return ESet(ctx, ctx.vmul(alpha, A.codes).tolist())


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
        reps = ctx.powers(ctx.generator(), (ctx.q - 1) // (ctx.p ** nu - 1))
        thr = float(len(F) if base == "subfield_size" else len(S)) ** threshold_exponent
        inter = _row_hits(ctx, reps, F.codes, S.codes).tolist()
        stats += [CosetStat(nu, c, k, thr) for c, k in zip(reps.tolist(), inter)]
        ok = ok and max(inter) <= thr
    return stats, ok
