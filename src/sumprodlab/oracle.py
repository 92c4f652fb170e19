"""Slow reference implementations used to cross-check the fast counting paths.

Everything here is deliberately literal: nested loops and linear scans, no
histograms, no membership tables, no generator tricks.  Each field
operation is paid once per pair: the energy computes a∘b once for each
(a, b) and then still compares every ordered quadruple, by linear scans
of that list.  Each set is iterated once per call: an inner loop runs over
a list of the inner set's codes bound before the outer loop, so a code
becomes a Python int once, not once per outer element.  Budgets guard
against accidental quartic blowups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sets import ESet, _same_field


@dataclass(frozen=True)
class OracleBudget:
    max_quadruples: int = 10 ** 8
    max_q: int = 4096

    def __post_init__(self):
        if self.max_quadruples < 1 or self.max_q < 2:
            raise ValueError("oracle budget must be positive")


DEFAULT_BUDGET = OracleBudget()


def _check_budget(ctx, work, budget):
    if ctx.q > budget.max_q:
        raise ValueError(f"q = {ctx.q} exceeds the oracle budget ({budget.max_q})")
    if work > budget.max_quadruples:
        raise ValueError(f"{work} loop iterations exceed the oracle budget ({budget.max_quadruples})")


def energy_brute(A: ESet, B: ESet, kind: str, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Energy: every ordered quadruple (a, b, a2, b2) in A x B x A x B with a∘b = a2∘b2.

    a∘b is computed once per pair, into a list in A x B order; each value
    is then compared with every entry of that list by list.count, so all
    (|A||B|)^2 quadruples are still tested one by one.
    """
    ctx = _same_field(A, B)
    if kind not in ("additive", "multiplicative"):
        raise ValueError(f"unknown energy kind {kind!r}")
    _check_budget(ctx, (len(A) * len(B)) ** 2, budget)
    inner = list(B)
    if ctx.m == 1:
        p = ctx.p
        if kind == "additive":
            values = [(a + b) % p for a in A for b in inner]
        else:
            values = [a * b % p for a in A for b in inner]
    else:
        op = ctx.add if kind == "additive" else ctx.mul
        values = [op(a, b) for a in A for b in inner]
    return sum(values.count(v) for v in values)


def product_set_brute(A: ESet, B: ESet, budget: OracleBudget = DEFAULT_BUDGET) -> list[int]:
    """Product set as a sorted list, deduplicated by a manual scan."""
    ctx = _same_field(A, B)
    _check_budget(ctx, len(A) * len(B), budget)
    vals = []
    inner = list(B)
    for a in A:
        for b in inner:
            vals.append(ctx.mul(a, b))
    vals.sort()
    out = []
    for v in vals:
        if not out or out[-1] != v:
            out.append(v)
    return out


def triple_cover_brute(aprime: ESet, cset: ESet, y1, y2, y3,
                       budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Count of c in C with y1/c, y2/c, y3/c all in A', by linear scans."""
    ctx = _same_field(aprime, cset)
    _check_budget(ctx, 3 * len(cset) * max(1, len(aprime)), budget)
    total = 0
    inner = list(aprime)
    for c in cset:
        if c == 0:
            raise ValueError("0 in C has no inverse")
        ic = ctx.inv(c)
        hits = 0
        for y in (y1, y2, y3):
            z = ctx.mul(y, ic)
            for a in inner:
                if a == z:
                    hits += 1
                    break
        if hits == 3:
            total += 1
    return total


def difference_count_brute(G: ESet, H: ESet, d, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Number of pairs (g, h) with g - h = d, by a double loop."""
    ctx = _same_field(G, H)
    _check_budget(ctx, len(G) * len(H), budget)
    count = 0
    inner = list(H)
    if ctx.m == 1:
        p = ctx.p
        for g in G:
            for h in inner:
                if (g - h) % p == d:
                    count += 1
        return count
    for g in G:
        for h in inner:
            if ctx.sub(g, h) == d:
                count += 1
    return count


def subfield_intersection_brute(elements: ESet, nu: int,
                                budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """|elements ∩ subfield of degree nu|, by linear membership scans."""
    ctx = elements.ctx
    F = ctx.subfield(nu)
    _check_budget(ctx, len(elements) * len(F), budget)
    count = 0
    inner = list(F)
    for z in elements:
        for f in inner:
            if z == f:
                count += 1
                break
    return count
