"""Deterministic test-set families for sweeps and verification runs.

Randomness policy: every random draw comes from a PCG64 generator seeded
with SeedSequence(entropy=seed, spawn_key=(trial, stream)).  The sweep
reserves stream 0 for the base set A, 1 for the shift d, 2 for B, 3 for C,
so rows are reproducible independently of execution order or thread count.
draw_shift is the one loop that draws a shift d with -d outside A, for
the sweep and the verify checks alike.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, divisors
from .sets import ESet
from .subgroups import subgroup_of_order

FAMILIES = ("random", "subgroup", "shifted_subgroup", "interval", "geometric")


def stream_rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, stream))
    return np.random.Generator(np.random.PCG64(ss))


def draw_shift(ctx: Field, A: ESet, rng: np.random.Generator, tries: int) -> int | None:
    """The first of up to `tries` draws d in [1, q) with -d outside A, so that
    0 stays out of A + d; None when every try hits.  Each try consumes one
    rng.integers(1, q)."""
    for _ in range(tries):
        d = int(rng.integers(1, ctx.q))
        if ctx.neg(d) not in A:
            return d
    return None


def largest_subgroup_order(ctx: Field, size: int) -> int:
    """Largest divisor of q - 1 that is <= size."""
    if size < 1:
        raise ValueError("size must be at least 1")
    return max(t for t in divisors(ctx.q - 1) if t <= size)


def generate_family(ctx: Field, family: str, size: int, seed: int,
                    trial: int = 0, stream: int = 0) -> ESet:
    """Build one named family instance.

    "random": uniform sample of `size` distinct nonzero elements.
    "subgroup": the multiplicative subgroup of the largest order <= size.
    "shifted_subgroup": that subgroup shifted by 1, with 0 dropped if hit.
    "interval": {1, ..., size}; prime fields only, where codes are residues.
    "geometric": {g^0, ..., g^(size-1)} for the canonical generator g.

    Only "random" consumes randomness; the rest are fully determined by
    (field, size).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if not 1 <= size <= ctx.q - 1:
        raise ValueError(f"size must be in [1, {ctx.q - 1}], got {size}")
    if family == "random":
        rng = stream_rng(seed, trial, stream)
        codes = rng.choice(ctx.q - 1, size=size, replace=False) + 1
        return ESet(ctx, codes)
    if family == "subgroup":
        return subgroup_of_order(ctx, largest_subgroup_order(ctx, size)).elements
    if family == "shifted_subgroup":
        G = subgroup_of_order(ctx, largest_subgroup_order(ctx, size)).elements
        codes = ctx.vadd(G.codes, 1)
        return ESet(ctx, codes[codes != 0])
    if family == "interval":
        if ctx.m != 1:
            raise ValueError("interval family needs a prime field")
        return ESet(ctx, np.arange(1, size + 1))
    # geometric: g has order q - 1, so the first `size` powers are distinct
    return ESet(ctx, ctx.generator_powers(size))
