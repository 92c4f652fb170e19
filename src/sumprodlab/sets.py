"""Finite subsets of a field and the product/sum/shift/dilate algebra on them.

An ESet is immutable: a sorted tuple of element codes plus a lazily built
frozenset for membership.  All set operations return new ESets
and require both operands to live in the same field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _BLOCK, Field

_DENSE_LIMIT = 1 << 22  # pair counts by bincount below this order, sorted merge above


class ESet:
    """Immutable subset of a field, kept as strictly increasing element codes."""

    __slots__ = ("ctx", "codes", "_member")

    def __init__(self, ctx: Field, codes):
        cleaned = sorted({int(c) for c in codes})
        if cleaned and (cleaned[0] < 0 or cleaned[-1] >= ctx.q):
            raise ValueError(f"element code out of range for {ctx!r}")
        self.ctx = ctx
        self.codes = tuple(cleaned)
        self._member = None

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
        mem = self._member
        if mem is None:
            mem = self._member = frozenset(self.codes)
        return code in mem


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


def _pair_counts(ctx: Field, xs, ys, op):
    """(values, counts): the distinct op(x, y) over xs x ys, ascending, and how often each occurs.

    op is one of Field's array operations, called as op(ctx, x, y).  Rows of
    xs are taken in blocks of about _BLOCK / ctx.width pairs.  Counts go to a
    bincount over all q codes when q <= _DENSE_LIMIT and to a sorted merge
    above.
    """
    xa = np.asarray(xs, dtype=np.int64)
    ya = np.asarray(ys, dtype=np.int64)
    dense = ctx.q <= _DENSE_LIMIT
    values = np.zeros(0, dtype=np.int64)
    counts = np.zeros(ctx.q if dense else 0, dtype=np.int64)
    rows = max(1, _BLOCK // (max(1, ya.size) * ctx.width))
    for i in range(0, xa.size, rows):
        z = op(ctx, xa[i:i + rows, None], ya[None, :]).ravel()
        if dense:
            counts += np.bincount(z, minlength=ctx.q)
        else:
            values, counts = _merge(np.concatenate([values, z]),
                                    np.concatenate([counts, np.ones_like(z)]))
    if dense:
        values = np.flatnonzero(counts)
        counts = counts[values]
    return values, counts


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
    g = ctx.generator()
    for nu in range(1, ctx.m):
        if ctx.m % nu != 0:
            continue
        F = ctx.subfield(nu)
        reps = (ctx.q - 1) // (ctx.p ** nu - 1)
        thr = float(len(F) if base == "subfield_size" else len(S)) ** threshold_exponent
        c = 1
        for _ in range(reps):
            inter = 0
            for f in F.codes:
                if ctx.mul(c, f) in S:
                    inter += 1
            stats.append(CosetStat(nu, c, inter, thr))
            if inter > thr:
                ok = False
            c = ctx.mul(c, g)
    return stats, ok
