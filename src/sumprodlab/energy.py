"""Representation histograms, additive/multiplicative energy, and the exact
inequality chain hanging off shifted product sets.

Counting conventions: energies count ordered quadruples a∘b = a'∘b'; in the
multiplicative kind, pairs whose product is 0 land in r(0) (callers wanting
the unit-group reading keep 0 out of their sets).  Every inequality that is
a theorem is checked with exact integer arithmetic and raises RuntimeError
on violation; every asymptotic statement is exposed as a plain float ratio
with implied constant 1 and is never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import sets
from .fields import Field
from .sets import ESet, _row_hits, _same_field, dilate, product_set, shift, sum_set

KINDS = ("additive", "multiplicative")

# sum c^2 <= (sum c)^2, so int64 sums squares exactly while |A||B| stays below this
_INT64_EXACT_MASS = math.isqrt(2 ** 63 - 1)


@dataclass(frozen=True)
class EnergyReport:
    """Energy value plus the representation function r behind it.

    r is kept as two arrays: `values`, the codes z with r(z) > 0 in
    ascending order, and `counts`, the r(z) themselves.
    """

    kind: str
    value: int
    support_size: int
    values: np.ndarray = field(repr=False, compare=False)
    counts: np.ndarray = field(repr=False, compare=False)

    @property
    def histogram(self) -> dict:
        """{z: r(z)} over the support, built on each read."""
        return dict(zip(self.values.tolist(), self.counts.tolist()))

    def as_dict(self):
        return {"kind": self.kind, "value": self.value, "support": self.support_size}


def energy(A: ESet, B: ESet | None = None, kind: str = "additive") -> EnergyReport:
    """Number of quadruples a∘b = a'∘b' with a, a' in A and b, b' in B.

    Computed as sum r(z)^2 over the representation counts r of A∘B,
    which is O(|A||B|) instead of quartic.  B defaults to A.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown energy kind {kind!r}")
    if B is None:
        B = A
    ctx = _same_field(A, B)
    op = Field.vadd if kind == "additive" else Field.vmul
    values, counts = sets._pair_counts(ctx, A.codes, B.codes, op)
    total = int(counts.sum())
    if total != len(A) * len(B):
        raise RuntimeError("histogram mass does not match |A||B|; counting bug")
    if total <= _INT64_EXACT_MASS:
        value = int(counts @ counts)
    else:
        value = sum(c * c for c in counts.tolist())
    return EnergyReport(kind, value, len(values), values, counts)


def shifted_subgroup_ratio(gamma: ESet, x) -> float:
    """E×(gamma + x) / (|gamma|^2 ln|gamma|) for a multiplicative subgroup gamma.

    The additive shift x must be nonzero and |gamma| >= 2 (log guard).  The
    input is verified to be a genuine subgroup: contains 1, avoids 0, closed
    under multiplication.
    """
    ctx = gamma.ctx
    ctx.check(x)
    if x == 0:
        raise ValueError("shift must be nonzero")
    n = len(gamma)
    if n < 2:
        raise ValueError("ratio needs |gamma| >= 2")
    if 0 in gamma or 1 not in gamma:
        raise ValueError("input is not a multiplicative subgroup")
    # 1 in gamma gives gamma within gamma*gamma, so equality is closure
    if product_set(gamma, gamma) != gamma:
        raise ValueError("input is not multiplicatively closed")
    e = energy(shift(gamma, x), kind="multiplicative").value
    return e / (n * n * math.log(n))


def triple_cover_count(aprime: ESet, cset: ESet, y1, y2, y3) -> int:
    """How many c in C land y1/c, y2/c and y3/c simultaneously in A'.

    y/c is in A' exactly when y is in c*A', a row of |A'| distinct products
    in C x A'; c counts when its row holds every distinct y."""
    ctx = _same_field(aprime, cset)
    for y in (y1, y2, y3):
        ctx.check(y)
    if 0 in cset:
        raise ValueError("0 in C has no inverse")
    ys = {y1, y2, y3}
    hits = _row_hits(ctx, cset.codes, aprime.codes, list(ys))
    return int(np.count_nonzero(hits == len(ys)))


def triple_cover_totals(aprime: ESet, cset: ESet) -> tuple[int, int]:
    """Total and repeated-coordinate mass of the triple cover count over (A'C)^3.

    Exchanging the order of summation collapses the triple sum, one c at a
    time, to sum_c N_c^3 with N_c = |{y in A'C : y/c in A'}|, and the triples
    with a repeated coordinate contribute sum_c (3 N_c^2 - 2 N_c).  Each N_c
    is recounted here against the actual product set via membership and
    inversion, and the exact identities are enforced:
    total == |C| * |A'|^3 and diagonal <= 3 * |C| * |A'|^2.
    """
    ctx = _same_field(aprime, cset)
    if 0 in cset:
        raise ValueError("0 in C has no inverse")
    if len(aprime) == 0 or len(cset) == 0:
        raise ValueError("both sets must be nonempty")
    s = product_set(aprime, cset)
    # N_c as |S ∩ c*A'| would satisfy the identity by construction, since S
    # is the support of those same products; counting c^-1 * S ∩ A' through
    # one scalar inverse per c keeps the recount independent of S.
    n = _row_hits(ctx, [ctx.inv(c) for c in cset], s.codes, aprime.codes).tolist()
    total = sum(k ** 3 for k in n)
    diagonal = sum(3 * k * k - 2 * k for k in n)
    expect = len(cset) * len(aprime) ** 3
    if total != expect:
        raise RuntimeError(f"triple cover total {total} != |C||A'|^3 = {expect}")
    if diagonal > 3 * len(cset) * len(aprime) ** 2:
        raise RuntimeError("repeated-coordinate mass exceeds its exact bound")
    return total, diagonal


def _witness_ratios(ctx, y1, y2, y3):
    """(alpha, beta) = ((y3 - y1)/(y3 - y2), (y1 - y2)/(y3 - y2)); y2 != y3."""
    idenom = ctx.inv(ctx.sub(y3, y2))
    return ctx.mul(ctx.sub(y3, y1), idenom), ctx.mul(ctx.sub(y1, y2), idenom)


def product_shift_identity(ctx, a1, a2, a3, c, b, d) -> bool:
    """Exact two-sided check of the rearrangement identity behind the chain.

    With y_i = (a_i + d)c, alpha = (y3-y1)/(y3-y2) and beta = (y1-y2)/(y3-y2),
    it evaluates a1*b - alpha*a2*b and a3*b*beta in field arithmetic and
    reports equality (algebraically they always agree).  Requires c, d != 0
    and pairwise distinct a_i, which makes the y_i pairwise distinct and the
    divisions well defined.
    """
    for v in (a1, a2, a3, c, b, d):
        ctx.check(v)
    if d == 0:
        raise ValueError("shift d must be nonzero")
    if c == 0:
        raise ValueError("c must be nonzero")
    if a1 == a2 or a1 == a3 or a2 == a3:
        raise ValueError("shift points must be pairwise distinct")
    y1, y2, y3 = (ctx.mul(ctx.add(a, d), c) for a in (a1, a2, a3))
    alpha, beta = _witness_ratios(ctx, y1, y2, y3)
    lhs = ctx.sub(ctx.mul(a1, b), ctx.mul(alpha, ctx.mul(a2, b)))
    rhs = ctx.mul(ctx.mul(a3, b), beta)
    return lhs == rhs


@dataclass(frozen=True)
class TripleWitness:
    """A triple of points y_i with its dilation ratios and cover count."""

    y1: int
    y2: int
    y3: int
    alpha: int
    beta: int
    cover: int


def make_triple_witness(A: ESet, C: ESet, d, y1, y2, y3) -> TripleWitness:
    """Build the witness used by the chain: ratios of (y1, y2, y3) plus its cover count."""
    ctx = _same_field(A, C)
    ctx.check(d)
    if d == 0:
        raise ValueError("shift d must be nonzero")
    if y1 == y2 or y1 == y3 or y2 == y3:
        raise ValueError("witness points must be pairwise distinct")
    aprime = shift(A, d)
    alpha, beta = _witness_ratios(ctx, y1, y2, y3)
    return TripleWitness(y1, y2, y3, alpha, beta,
                         triple_cover_count(aprime, C, y1, y2, y3))


@dataclass(frozen=True)
class ChainStepRecord:
    """One exact inequality with both sides, for reporting."""

    name: str
    lhs: int
    rhs: int
    holds: bool


@dataclass(frozen=True)
class CauchySchwarzRecord:
    """Numbers produced while verifying the chain for one witness."""

    witness: TripleWitness
    pair_count: int
    pair_count_lower: int
    cross_energy: int
    base_energy: int
    ab_size: int


def cauchy_schwarz_chain(A: ESet, B: ESet, C: ESet, d, w: TripleWitness) -> CauchySchwarzRecord:
    """Run the three exact inequalities hanging off one witness.

    (i)   T >= |A| * cover, where T counts pairs (p1, p2) in AB x AB with
          p1 - alpha*p2 in beta*AB (distinct-product argument; needs
          |A| = |B| and 0 outside A, B, C and A+d);
    (ii)  E+(AB, alpha*AB) * |AB| >= T^2 (Cauchy-Schwarz);
    (iii) E+(AB, alpha*AB) <= E+(AB) (Cauchy-Schwarz plus dilation invariance).

    All three are theorems; RuntimeError on violation means an arithmetic bug.
    """
    ctx = _same_field(A, B, C)
    ctx.check(d)
    if d == 0:
        raise ValueError("shift d must be nonzero")
    if len(A) != len(B):
        raise ValueError("the distinct-product argument needs |A| = |B|")
    if w.y1 == w.y2 or w.y1 == w.y3 or w.y2 == w.y3:
        raise ValueError("degenerate witness")
    if w.alpha == 0 or w.beta == 0:
        raise ValueError("witness ratios must be nonzero")
    aprime = shift(A, d)
    for s, name in ((A, "A"), (B, "B"), (C, "C"), (aprime, "A+d")):
        if 0 in s:
            raise ValueError(f"0 in {name} breaks the distinct-product argument")
    ab = product_set(A, B)
    alpha_ab = dilate(ab, w.alpha)
    beta_ab = dilate(ab, w.beta)
    values, counts = sets._pair_counts(ctx, ab.codes, alpha_ab.codes, Field.vsub)
    t = int(counts[np.isin(values, beta_ab.codes)].sum())
    lower = len(A) * w.cover
    if t < lower:
        raise RuntimeError(f"pair count {t} < |A| * cover = {lower}")
    cross = energy(ab, alpha_ab, kind="additive").value
    if cross * len(ab) < t * t:
        raise RuntimeError("Cauchy-Schwarz step failed: E(AB, aAB) * |AB| < T^2")
    base = energy(ab, kind="additive").value
    if cross > base:
        raise RuntimeError("dilation step failed: E(AB, aAB) > E(AB)")
    return CauchySchwarzRecord(w, t, lower, cross, base, len(ab))


@dataclass(frozen=True)
class ChainReport:
    """Growth statistics K, L with the exact checks and report-only ratios."""

    a_size: int
    K: Fraction
    L: Fraction
    ab_size: int
    shifted_product_size: int
    energy_ab: int
    ratio_energy_lb: float
    ratio_k14_l12: float
    inequalities: tuple

    def as_dict(self):
        return {
            "K": float(self.K),
            "L": float(self.L),
            "sizes": {"A": self.a_size, "AB": self.ab_size,
                      "A_d_C": self.shifted_product_size},
            "energy_AB": self.energy_ab,
            "ratios": {"energy_lb": self.ratio_energy_lb,
                       "k14_l12": self.ratio_k14_l12},
            "inequalities": [
                {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds}
                for r in self.inequalities
            ],
        }


def growth_chain_report(A: ESet, B: ESet, C: ESet, d) -> ChainReport:
    """K = |AB|/|A|, L = |(A+d)C|/|A|, E+(AB), and the chain's ratio targets.

    Exact pieces: K and L as rationals, E+(AB) as an integer, and (when A and
    B avoid 0 so the product group argument applies) the Ruzsa bound
    |AA| * |B| <= |AB|^2, recorded with both sides.  Report-only ratios with
    implied constant 1: E+(AB) * L^6 * K / |A|^3 (expected bounded below) and
    K^14 * L^12 / |A| (expected bounded below); neither is asserted.
    """
    ctx = _same_field(A, B, C)
    ctx.check(d)
    if not (len(A) == len(B) == len(C)):
        raise ValueError("the chain needs |A| = |B| = |C|")
    if len(A) < 2:
        raise ValueError("need at least two elements per set")
    if d == 0:
        raise ValueError("shift d must be nonzero")
    aprime = shift(A, d)
    if 0 in aprime:
        raise ValueError("0 in A + d")
    if 0 in C:
        raise ValueError("0 in C")
    ab = product_set(A, B)
    adc = product_set(aprime, C)
    n = len(A)
    K = Fraction(len(ab), n)
    L = Fraction(len(adc), n)
    e_ab = energy(ab, kind="additive").value
    ratio_energy = float(e_ab * L ** 6 * K / n ** 3)
    ratio_kl = float(K ** 14 * L ** 12 / n)
    ineqs = []
    if 0 not in A and 0 not in B:
        aa = ab if B == A else product_set(A, A)
        lhs = len(aa) * len(B)
        rhs = len(ab) ** 2
        holds = lhs <= rhs
        ineqs.append(ChainStepRecord("ruzsa_product_AA", lhs, rhs, holds))
        if not holds:
            raise RuntimeError("|AA| * |B| <= |AB|^2 failed; arithmetic bug")
    return ChainReport(n, K, L, len(ab), len(adc), e_ab,
                       ratio_energy, ratio_kl, tuple(ineqs))


def plunnecke_ruzsa_check(Y: ESet, Xs, mode: str = "additive") -> bool:
    """Exact check of |X1∘...∘Xk| * |Y|^(k-1) <= prod_i |Y∘Xi| for k <= 3.

    mode "additive" uses sumsets; "multiplicative" uses product sets and
    requires 0-free inputs (the statement lives in the unit group; with 0
    present it is false, e.g. Y = {0}).  The inequality is a theorem, so a
    violation raises RuntimeError rather than returning False.
    """
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown mode {mode!r}")
    Xs = list(Xs)
    if not 1 <= len(Xs) <= 3:
        raise ValueError("k must be between 1 and 3")
    if len(Y) == 0:
        raise ValueError("Y must be nonempty")
    _same_field(Y, *Xs)
    if mode == "multiplicative":
        if 0 in Y or any(0 in X for X in Xs):
            raise ValueError("multiplicative mode needs 0-free sets")
        combine = product_set
    else:
        combine = sum_set
    total = Xs[0]
    for X in Xs[1:]:
        total = combine(total, X)
    lhs = len(total) * len(Y) ** (len(Xs) - 1)
    rhs = 1
    for X in Xs:
        rhs *= len(combine(Y, X))
    if lhs > rhs:
        raise RuntimeError("sumset inequality violated; arithmetic bug")
    return True


@dataclass(frozen=True)
class PairEnergyBoundReport:
    """E+(X, Z) against the incidence-type upper bound through Y."""

    energy: int
    bound: float
    ratio: float
    hypothesis_ok: bool

    def as_dict(self):
        return {"value": self.energy, "bound": self.bound, "ratio": self.ratio,
                "hypothesis_ok": self.hypothesis_ok}


def pair_energy_bound_ratio(X: ESet, Y: ESet, Z: ESet) -> PairEnergyBoundReport:
    """E+(X, Z) divided by (|X||YZ|)^{3/2} |Y|^{-1/2} + M |X||YZ| |Y|^{-1}.

    M = max(|X|, |YZ|).  Prime fields only.  The size hypothesis
    |X| |Y| |YZ| <= p^2 is reported in hypothesis_ok, never asserted; the
    ratio itself carries implied constant 1.
    """
    ctx = _same_field(X, Y, Z)
    if ctx.m > 1:
        raise ValueError("this bound applies to prime fields only")
    if len(X) == 0 or len(Y) == 0 or len(Z) == 0:
        raise ValueError("sets must be nonempty")
    e = energy(X, Z, kind="additive").value
    yz = len(product_set(Y, Z))
    nx, ny = len(X), len(Y)
    m_big = max(nx, yz)
    bound = (nx * yz) ** 1.5 / math.sqrt(ny) + m_big * nx * yz / ny
    return PairEnergyBoundReport(e, bound, e / bound, nx * ny * yz <= ctx.p ** 2)
