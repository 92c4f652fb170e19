"""Multiplicative subgroups: construction, subfield intersections, the gcd
conditions that govern them, and difference/energy statistics.

Exact counts are asserted (the gcd intersection formula is an identity);
power-law conditions are reported as ratios with implied constant 1 and are
never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .fields import Field, _index, divisors
from .energy import energy
from .sets import ESet, _op_blocks, _same_field

# default exponents for the report-only power conditions
GCD_CONDITION_DELTA = Fraction(119, 605)
OVERLAP_CONDITION_DELTA = Fraction(486, 605)

# exponent of max(|G|, |H|) in the difference-count ratio
DIFF_RATIO_EXPONENT_PRIME = Fraction(26, 27)
DIFF_RATIO_EXPONENT_EXT = Fraction(559, 560)


@dataclass(frozen=True)
class SubgroupInfo:
    """A multiplicative subgroup with its order and generating power."""

    elements: ESet
    order: int
    generator_power: int
    n: int | None = None  # set when the subgroup arose as n-th powers

    def __post_init__(self):
        if len(self.elements) != self.order:
            raise ValueError("subgroup size does not match its order")
        if 0 in self.elements:
            raise ValueError("0 cannot lie in a multiplicative subgroup")
        if 1 not in self.elements:
            raise ValueError("a subgroup must contain 1")

    @property
    def ctx(self) -> Field:
        return self.elements.ctx


def subgroup_additive_energy(G: SubgroupInfo) -> int:
    """E+(G) of a unit subgroup G, counted over its coset orbits when |G|^2 > q - 1.

    Multiplying by c in G permutes G, so r(z), the number of pairs of G
    summing to z, is constant on each coset zG, and the n = (q-1)/|G| cosets
    g^j G (g the generator) split the units.  So

        E+(G) = r(0)^2 + |G| * sum_{j<n} r(g^j)^2,

    with r(0) = |G| when -1 lies in G and 0 otherwise, and r(c) the number
    of y in G with c - y in G: n|G| = q - 1 differences, looked up in a
    membership mask, instead of |G|^2 pairs.  Below the crossover energy()
    is cheaper and counts the pairs.  The mass identity
    r(0) + |G| * sum_j r(g^j) = |G|^2 is asserted.
    """
    ctx, t = G.ctx, G.order
    if (ctx.q - 1) % t != 0:
        raise ValueError(f"order {t} does not divide q - 1 = {ctx.q - 1}")
    if t * t > ctx.q - 1:
        return _orbit_energy(ctx, G.elements.codes)
    return energy(G.elements).value


def _orbit_energy(ctx: Field, codes) -> int:
    """E+(G) over the coset orbits, from G's int64 codes, as subgroup_additive_energy describes."""
    t = codes.size
    member = np.zeros(ctx.q, dtype=bool)
    member[codes] = True
    reps = ctx.generator_powers((ctx.q - 1) // t)
    r = np.concatenate([member[z].sum(axis=1) for z in _op_blocks(ctx, reps, codes, Field.vsub)])
    r0 = t if member[ctx.neg(1)] else 0
    if r0 + t * int(r.sum()) != t * t:
        raise RuntimeError("orbit counts do not add up to |G|^2; counting bug")
    return r0 * r0 + t * int(r @ r)


def subgroup_of_order(ctx: Field, t: int) -> SubgroupInfo:
    """The unique subgroup of order t of the cyclic unit group; t must divide q - 1."""
    codes, h = ctx.unit_subgroup(t)
    return SubgroupInfo(ESet(ctx, codes), len(codes), h)


def nth_power_subgroup(ctx: Field, n: int) -> SubgroupInfo:
    """{x^n : x in the unit group}, of order (q-1)/gcd(n, q-1)."""
    k = _index(n)
    if k is None or k < 1:
        raise ValueError("n must be a positive integer")
    t = (ctx.q - 1) // math.gcd(k, ctx.q - 1)
    return replace(subgroup_of_order(ctx, t), n=k)


def _subfield_count(G: SubgroupInfo, nu: int) -> int:
    """|G ∩ F| for the subfield F of degree nu."""
    return int(np.isin(G.elements.codes, G.ctx.subfield(nu).codes).sum())


def subfield_intersection(G: SubgroupInfo, nu: int) -> tuple[int, int]:
    """|G ∩ F| for the subfield F of degree nu, exact count vs gcd formula.

    Needs G built as n-th powers with n dividing q - 1, and nu a proper
    divisor of m.  Returns (exact, formula) after asserting they agree:
    formula = gcd(n, (q-1)/(p^nu - 1)) * (p^nu - 1) / n.
    """
    ctx = G.ctx
    if G.n is None:
        raise ValueError("intersection formula needs the subgroup's power index n")
    n = G.n
    if (ctx.q - 1) % n != 0:
        raise ValueError(f"n = {n} must divide q - 1 = {ctx.q - 1}")
    given, nu = nu, _index(nu)
    if nu is None or nu < 1 or nu >= ctx.m or ctx.m % nu != 0:
        raise ValueError(f"{given} is not a proper divisor of m = {ctx.m}")
    exact = _subfield_count(G, nu)
    e = ctx.p ** nu - 1
    num = math.gcd(n, (ctx.q - 1) // e) * e
    if num % n != 0:
        raise RuntimeError("gcd formula is not an integer; broken preconditions")
    formula = num // n
    if exact != formula:
        raise RuntimeError(f"intersection mismatch: exact {exact} != formula {formula}")
    return exact, formula


@dataclass(frozen=True)
class ConditionReport:
    """One proper subfield's row of a power condition check (report-only)."""

    nu: int
    lhs: float
    rhs: float
    ratio: float
    pass_at_constant_one: bool


def gcd_growth_condition(ctx: Field, n: int,
                         delta: float = float(GCD_CONDITION_DELTA)) -> list[ConditionReport]:
    """gcd(n, (q-1)/(p^nu - 1)) against n^delta * q^(1-delta) / p^nu, per proper subfield.

    Report-only: each row carries the ratio lhs/rhs and whether it passes at
    implied constant 1.  Prime fields have no proper subfields and give an
    empty list (documented behavior, not an error).
    """
    given, n = n, _index(n)
    if n is None or n < 1 or (ctx.q - 1) % n != 0:
        raise ValueError(f"n = {given} must divide q - 1 = {ctx.q - 1}")
    out = []
    for nu in divisors(ctx.m)[:-1]:
        lhs = float(math.gcd(n, (ctx.q - 1) // (ctx.p ** nu - 1)))
        rhs = n ** delta * ctx.q ** (1.0 - delta) / ctx.p ** nu
        out.append(ConditionReport(nu, lhs, rhs, lhs / rhs, lhs <= rhs))
    return out


def subfield_overlap_condition(G: SubgroupInfo,
                               delta1: float = float(OVERLAP_CONDITION_DELTA)
                               ) -> list[ConditionReport]:
    """|G ∩ F| against |G|^delta1 for every proper subfield F (report-only).

    Empty list for prime fields, same convention as gcd_growth_condition.
    """
    ctx = G.ctx
    out = []
    for nu in divisors(ctx.m)[:-1]:
        lhs = float(_subfield_count(G, nu))
        rhs = len(G.elements) ** delta1
        out.append(ConditionReport(nu, lhs, rhs, lhs / rhs, lhs <= rhs))
    return out


class DifferenceCount(NamedTuple):
    count: int
    ratio: float
    exponent: float


def difference_count(G: ESet, H: ESet, d) -> DifferenceCount:
    """Solutions of g - h = d with g in G, h in H, plus the saving ratio.

    The ratio divides the count by max(|G|, |H|)^e with the exponent
    e = 26/27 in prime fields and 559/560 in extensions, returned as a
    float; it carries implied constant 1 and is informational only.
    """
    ctx = _same_field(G, H)
    d = ctx.code(d)
    if d == 0:
        raise ValueError("difference d must be nonzero")
    if len(G) == 0 or len(H) == 0:
        raise ValueError("sets must be nonempty")
    count = int(np.isin(ctx.vsub(G.codes, d), H.codes).sum())
    e = float(DIFF_RATIO_EXPONENT_PRIME if ctx.m == 1 else DIFF_RATIO_EXPONENT_EXT)
    return DifferenceCount(count, count / float(max(len(G), len(H))) ** e, e)


class SubgroupEnergy(NamedTuple):
    value: int
    exponent: float


def subgroup_energy_exponent(G: SubgroupInfo) -> SubgroupEnergy:
    """Additive energy of the subgroup and its exponent log E / log |G|.

    The exponent sits in [2, 3]; how far it drops below 3 is the saving the
    report tracks.  Needs |G| >= 2.
    """
    n = len(G.elements)
    if n < 2:
        raise ValueError("energy exponent needs |G| >= 2")
    e = subgroup_additive_energy(G)
    return SubgroupEnergy(e, math.log(e) / math.log(n))


def subgroup_orders(ctx: Field) -> list[int]:
    """All subgroup orders of the unit group, i.e. the divisors of q - 1."""
    return divisors(ctx.q - 1)
