"""Character sums: direct Gauss sums, subgroup character sums, and the
classical/energy-based magnitude bounds.

The direct path evaluates sum over x of psi_a(x^n) literally: a power table
x -> x^n built by square-and-multiply (vectorized polynomial arithmetic, no
generator or discrete-log shortcuts), then one character per element.  The
subgroup path uses the exact decomposition S_n(a) = 1 + n * S(a, G_n) for
n | q - 1.  The two are computed independently and must agree within
1e-6 * q; Weil's bound and Konyagin's energy bound are exact theorems and
are asserted (plus 1e-6 rounding slack), while the power-saving comparison
bound is report-only.

Complex accumulation uses numpy's fixed pairwise reduction over element
codes in increasing order, which is bit-reproducible for a given platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import energy
from .fields import Field
from .sets import ESet
from .subgroups import SubgroupInfo, nth_power_subgroup

MAX_DIRECT_Q = 10 ** 6  # runtime guard for full-field summation

# power saving in the subgroup energy exponent, driving the comparison bound
ENERGY_SAVING_DELTA = 1.0 / 56.0

# n above roughly q^(29/57) stops being guaranteed nontrivial
NONTRIVIAL_EXPONENT = 29.0 / 57.0

GAUSS_CSV_HEADER = ("q", "p", "m", "n", "a", "re", "im", "abs", "weil",
                    "konyagin", "paper_bound", "ratio_weil", "ratio_paper")


@functools.lru_cache(maxsize=16)
def _power_table(ctx: Field, n: int):
    """Read-only array y with y[x] = x**n for every code x, by square-and-multiply.

    Deliberately not gpow[n * dlog(x)]: the subgroup side of the check
    S_n = 1 + n * S(a, G_n) is built from the generator powers, so a wrong
    table would then enter both sides and the check would still pass.
    """
    result = np.ones(ctx.q, dtype=np.int64)
    base = np.arange(ctx.q, dtype=np.int64)
    e = n
    while e:
        if e & 1:
            result = ctx.vmul(result, base)
        e >>= 1
        if e:
            base = ctx.vmul(base, base)
    result.flags.writeable = False
    return result


def _char_sum_over_codes(ctx, a, codes):
    tr = ctx.vtrace(ctx.vmul(a, codes))
    return complex(np.sum(ctx.roots[tr]))


def _validate(ctx, n, a, need_divisor):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"power index must be a positive integer, got {n!r}")
    ctx.check(a)
    if a == 0:
        raise ValueError("character index a must be nonzero")
    if ctx.q > MAX_DIRECT_Q:
        raise ValueError(f"q = {ctx.q} exceeds the summation guard {MAX_DIRECT_Q}")
    if need_divisor and (ctx.q - 1) % n != 0:
        raise ValueError(f"n = {n} must divide q - 1 = {ctx.q - 1}")


def gauss_sum(ctx: Field, n: int, a) -> complex:
    """Direct evaluation of sum over all x of psi_a(x^n)."""
    _validate(ctx, n, a, need_divisor=False)
    return _char_sum_over_codes(ctx, a, _power_table(ctx, n))


def subgroup_character_sum(ctx: Field, G, a) -> complex:
    """sum over g in G of psi_a(g), accumulated over increasing codes."""
    elements = G.elements if isinstance(G, SubgroupInfo) else G
    if not isinstance(elements, ESet) or elements.ctx != ctx:
        raise ValueError("subgroup does not live in this field")
    ctx.check(a)
    if a == 0:
        raise ValueError("character index a must be nonzero")
    return _char_sum_over_codes(ctx, a, np.asarray(elements.codes, dtype=np.int64))


def gauss_sum_by_subgroup(ctx: Field, n: int, a) -> complex:
    """S_n(a) through the exact identity 1 + n * S(a, G_n), for n | q - 1.

    Every nonzero x^n hits each element of G_n exactly n times, so the two
    evaluations must agree; disagreement beyond 1e-6 * q raises.
    """
    _validate(ctx, n, a, need_divisor=True)
    value = 1 + n * subgroup_character_sum(ctx, nth_power_subgroup(ctx, n), a)
    direct = gauss_sum(ctx, n, a)
    if abs(value - direct) > 1e-6 * ctx.q:
        raise RuntimeError(f"direct and subgroup evaluations disagree: {direct} vs {value}")
    return value


@dataclass(frozen=True)
class GaussReport:
    """One Gauss sum against its exact and comparison bounds.

    weil = (n-1) sqrt(q) and konyagin = q^(1/8) E+(G_n)^(1/4) are exact
    theorems (asserted at construction time by gauss_bounds_report);
    paper_bound = q^((7-2d)/8) n^((2+2d)/8) with d = 1/56 is the power-saving
    comparison target and is report-only, as is the nontrivial range cutoff.
    """

    p: int
    m: int
    q: int
    n: int
    a: int
    value: complex
    magnitude: float
    weil: float
    konyagin: float
    paper_bound: float
    subgroup_sum: complex
    group_energy: int
    nontrivial_cutoff: float

    @property
    def ratio_weil(self) -> float:
        return self.magnitude / self.weil if self.weil else math.inf

    @property
    def ratio_paper(self) -> float:
        return self.magnitude / self.paper_bound

    def csv_row(self):
        vals = (self.q, self.p, self.m, self.n, self.a,
                self.value.real, self.value.imag, self.magnitude, self.weil,
                self.konyagin, self.paper_bound, self.ratio_weil, self.ratio_paper)
        return [repr(v) if isinstance(v, float) else str(v) for v in vals]

    def as_dict(self):
        return {
            "q": self.q, "p": self.p, "m": self.m, "n": self.n, "a": self.a,
            "re": self.value.real, "im": self.value.imag, "abs": self.magnitude,
            "weil": self.weil, "konyagin": self.konyagin,
            "paper_bound": self.paper_bound,
            "ratio_weil": self.ratio_weil, "ratio_paper": self.ratio_paper,
            "subgroup_sum": {"re": self.subgroup_sum.real, "im": self.subgroup_sum.imag},
            "group_energy": self.group_energy,
            "nontrivial_cutoff": self.nontrivial_cutoff,
        }


def gauss_bounds_report(ctx: Field, n: int, a) -> GaussReport:
    """Direct + subgroup evaluation of S_n(a) with all magnitude bounds.

    Requires 2 <= n | q - 1 and a != 0.  Asserts (with 1e-6 slack for
    rounding): |S_n(a)| <= (n-1) sqrt(q); |S(a, G_n)| <= q^(1/8) E+(G_n)^(1/4);
    and consistency of the two evaluations within 1e-6 * q.
    """
    if n < 2:
        raise ValueError("bounds need n >= 2 (n = 1 gives the zero sum)")
    _validate(ctx, n, a, need_divisor=True)
    G = nth_power_subgroup(ctx, n)
    ssum = subgroup_character_sum(ctx, G, a)
    direct = gauss_sum(ctx, n, a)
    magnitude = abs(direct)
    weil = (n - 1) * math.sqrt(ctx.q)
    if magnitude > weil + 1e-6:
        raise RuntimeError(f"Weil bound violated: |S| = {magnitude} > {weil}")
    e_g = energy(G.elements, kind="additive").value
    konyagin = ctx.q ** 0.125 * e_g ** 0.25
    if abs(ssum) > konyagin + 1e-6:
        raise RuntimeError(f"energy bound violated: |S(a,G)| = {abs(ssum)} > {konyagin}")
    if abs(direct - (1 + n * ssum)) > 1e-6 * ctx.q:
        raise RuntimeError("direct and subgroup evaluations disagree")
    d2 = ENERGY_SAVING_DELTA
    paper_bound = ctx.q ** ((7 - 2 * d2) / 8) * n ** ((2 + 2 * d2) / 8)
    return GaussReport(ctx.p, ctx.m, ctx.q, n, a, direct, magnitude, weil,
                       konyagin, paper_bound, ssum, e_g,
                       ctx.q ** NONTRIVIAL_EXPONENT)
