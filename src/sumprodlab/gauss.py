"""Character sums: direct Gauss sums, subgroup character sums, and the
classical/energy-based magnitude bounds.

The direct path evaluates sum over x of psi_a(x^n) literally: a power table
x -> x^n built by square-and-multiply on the base-p digit rows of the codes
(Field._digit_product, the kernel behind vmul, whose squares form each
cross term once; no generator or discrete-log shortcuts), then the trace
Tr(a * y) of every entry y, read off y's digits against the form
(Tr(a * t^i))_{i<m} (Field.vtrace), so a character pays no array
multiplication; the form is built once per character and read by both
evaluations.  The subgroup path uses the exact decomposition
S_n(a) = 1 + n * S(a, G_n) for n | q - 1.  The two are computed
independently and must agree exactly, in integers: x -> x^n sends 0 to 0
and the units n-to-1 onto G_n, so the traces Tr(a * x^n) over all x are n
copies of the traces over a*G_n plus one 0, count for count.  Weil's
bound and Konyagin's energy bound are exact theorems and are asserted
(plus 1e-6 rounding slack), while the power-saving comparison bound is
report-only.

The x^n table, G_n's codes and E+(G_n) depend on (field, n) alone: one
cached entry per (field, n), the 16 most recent kept, serves every character
a of it.  G_n's codes are sliced from the field's generator powers and
counted as one int64 array, never as Python ints.

Complex accumulation uses numpy's fixed pairwise reduction over element
codes in increasing order, which is bit-reproducible for a given platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import _BLOCK, Field, _index, _read_only, factorize
from .sets import ESet
from .subgroups import SubgroupInfo, _subgroup_energy

MAX_DIRECT_Q = 10 ** 6  # runtime guard for full-field summation

# power saving in the subgroup energy exponent, driving the comparison bound
ENERGY_SAVING_DELTA = 1.0 / 56.0

# n above roughly q^(29/57) stops being guaranteed nontrivial
NONTRIVIAL_EXPONENT = 29.0 / 57.0

GAUSS_CSV_HEADER = ("q", "p", "m", "n", "a", "re", "im", "abs", "weil",
                    "konyagin", "paper_bound", "ratio_weil", "ratio_paper")


def _vpow(ctx: Field, base, e: int):
    """base**e elementwise for e >= 1, as an int32 code array; base is left untouched.

    Left-to-right square-and-multiply on base-p digit rows: each block of
    about _BLOCK / width codes is split into digits once, squared and
    multiplied by its own digits through Field._digit_product, and packed
    once.  The result starts at the leading bit of e, so e costs
    bit_length(e) - 1 squarings and popcount(e) - 1 multiplications,
    none by one.  int32 holds every code, as q <= 2^31.
    """
    if e < 1:
        raise ValueError(f"exponent must be a positive integer, got {e!r}")
    bits = bin(e)[3:]
    out = np.empty(len(base), dtype=np.int32)
    rows = max(1, _BLOCK // ctx.width)
    for i in range(0, len(base), rows):
        digits = ctx._digits(np.asarray(base[i:i + rows], dtype=np.int64))
        power = digits
        for bit in bits:
            power = ctx._digit_product(power, power)
            if bit == "1":
                power = ctx._digit_product(power, digits)
        out[i:i + rows] = ctx._pack(power)
    return out


class _Tables:
    """What every character a of one (field, n) shares, each part built on first read."""

    def __init__(self, ctx: Field, n: int):
        self.ctx, self.n = ctx, n

    @functools.cached_property
    def powers(self):
        """Read-only int32 array y with y[x] = x**n for every code x, by square-and-multiply.

        int32 holds every code below MAX_DIRECT_Q and halves the cached bytes;
        the array operations that read the table cast it to int64.  _vpow
        builds it on base-p digit rows, block by block, so a table costs one
        digit split and one pack per block, whatever n.

        For n > 1 dividing q - 1, the table is that of n / ell raised to the power
        ell, for the smallest prime ell of q - 1 dividing n; the table of n / ell
        comes from its own cached entry, or is chained the same way.  A scan over
        the divisors of q - 1 in ascending order so pays at most log2(ell) squarings
        and as many multiplications per table, against about log2(n) of each from
        the codes.  ell is taken from factorize(q - 1), never from factorize(n);
        other n are built from the codes directly, so chains are at most log2(q) long.

        Deliberately not gpow[n * dlog(x)]: the subgroup side of the check
        S_n = 1 + n * S(a, G_n) is built from the generator powers, so a wrong
        table would then enter both sides and the check would still pass.
        """
        ctx, n = self.ctx, self.n
        if n > 1 and (ctx.q - 1) % n == 0:
            ell = next(ell for ell, _ in factorize(ctx.q - 1) if n % ell == 0)
            return _read_only(_vpow(ctx, _tables(ctx, n // ell).powers, ell))
        return _read_only(_vpow(ctx, np.arange(ctx.q, dtype=np.int64), n))

    @functools.cached_property
    def subgroup(self):
        """(G_n's read-only, ascending int64 codes, E+(G_n)), for n | q - 1.

        The codes come from Field.unit_subgroup as one array, sorted, and
        E+(G_n) is counted on that array, so G_n is never a list of Python ints.
        """
        ctx = self.ctx
        codes = _read_only(np.sort(ctx.unit_subgroup((ctx.q - 1) // self.n)[0]))
        return codes, _subgroup_energy(ctx, codes)


# Both reports visit every a of one (field, n) in a row, and a divisor scan chains
# each x^n table from an earlier entry; kept per Field, the tables would have no bound.
@functools.lru_cache(maxsize=16)
def _tables(ctx: Field, n: int) -> _Tables:
    return _Tables(ctx, n)


def _char_sum_over_codes(ctx, form, codes):
    """(sum of psi_a over codes, the traces Tr(a * code) it summed), form = ctx.trace_form(a)."""
    tr = ctx.vtrace(codes, form=form)
    return complex(np.sum(ctx.roots[tr])), tr


def _evaluate(ctx, n, a):
    """(S_n(a) summed over the x^n table, S(a, G_n)), once they are seen to agree exactly.

    Tr(a * x^n) over all x must count n times Tr(a * G_n), plus one 0 for
    x = 0, trace for trace; otherwise this raises RuntimeError.
    """
    form, tables = ctx.trace_form(a), _tables(ctx, n)
    ssum, subgroup_traces = _char_sum_over_codes(ctx, form, tables.subgroup[0])
    direct, direct_traces = _char_sum_over_codes(ctx, form, tables.powers)
    expect = n * np.bincount(subgroup_traces, minlength=ctx.p)
    expect[0] += 1
    if not np.array_equal(np.bincount(direct_traces, minlength=ctx.p), expect):
        raise RuntimeError(f"direct and subgroup evaluations disagree: {direct} vs {1 + n * ssum}")
    return direct, ssum


def _validate(ctx, n, a, need_divisor) -> int:
    k = _index(n)
    if k is None or k < 1:
        raise ValueError(f"power index must be a positive integer, got {n!r}")
    ctx.check(a)
    if a == 0:
        raise ValueError("character index a must be nonzero")
    if ctx.q > MAX_DIRECT_Q:
        raise ValueError(f"q = {ctx.q} exceeds the summation guard {MAX_DIRECT_Q}")
    if need_divisor and (ctx.q - 1) % k != 0:
        raise ValueError(f"n = {n} must divide q - 1 = {ctx.q - 1}")
    return k


def gauss_sum(ctx: Field, n: int, a) -> complex:
    """Direct evaluation of sum over all x of psi_a(x^n)."""
    n = _validate(ctx, n, a, need_divisor=False)
    return _char_sum_over_codes(ctx, ctx.trace_form(a), _tables(ctx, n).powers)[0]


def subgroup_character_sum(ctx: Field, G, a) -> complex:
    """sum over g in G of psi_a(g), accumulated over increasing codes."""
    elements = G.elements if isinstance(G, SubgroupInfo) else G
    if not isinstance(elements, ESet) or elements.ctx != ctx:
        raise ValueError("subgroup does not live in this field")
    ctx.check(a)
    if a == 0:
        raise ValueError("character index a must be nonzero")
    codes = np.asarray(elements.codes, dtype=np.int64)
    return _char_sum_over_codes(ctx, ctx.trace_form(a), codes)[0]


def gauss_sum_by_subgroup(ctx: Field, n: int, a) -> complex:
    """S_n(a) through the exact identity 1 + n * S(a, G_n), for n | q - 1.

    Every nonzero x^n hits each element of G_n exactly n times, so the two
    evaluations must agree trace for trace; any disagreement raises.
    """
    n = _validate(ctx, n, a, need_divisor=True)
    return 1 + n * _evaluate(ctx, n, a)[1]


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

    Requires 2 <= n | q - 1 and a != 0.  Asserts the exact agreement of the
    two evaluations (as in gauss_sum_by_subgroup), then, with 1e-6 slack
    for rounding, |S_n(a)| <= (n-1) sqrt(q) and
    |S(a, G_n)| <= q^(1/8) E+(G_n)^(1/4).
    """
    if _index(n) is not None and n < 2:
        raise ValueError("bounds need n >= 2 (n = 1 gives the zero sum)")
    n = _validate(ctx, n, a, need_divisor=True)
    direct, ssum = _evaluate(ctx, n, a)
    magnitude = abs(direct)
    weil = (n - 1) * math.sqrt(ctx.q)
    if magnitude > weil + 1e-6:
        raise RuntimeError(f"Weil bound violated: |S| = {magnitude} > {weil}")
    e_g = _tables(ctx, n).subgroup[1]
    konyagin = ctx.q ** 0.125 * e_g ** 0.25
    if abs(ssum) > konyagin + 1e-6:
        raise RuntimeError(f"energy bound violated: |S(a,G)| = {abs(ssum)} > {konyagin}")
    d2 = ENERGY_SAVING_DELTA
    paper_bound = ctx.q ** ((7 - 2 * d2) / 8) * n ** ((2 + 2 * d2) / 8)
    return GaussReport(ctx.p, ctx.m, ctx.q, n, a, direct, magnitude, weil,
                       konyagin, paper_bound, ssum, e_g,
                       ctx.q ** NONTRIVIAL_EXPONENT)
