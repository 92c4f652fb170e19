import ast
import itertools
import random
from pathlib import Path

import pytest

from sumprodlab import oracle
from sumprodlab.fields import Field, make_field
from sumprodlab.sets import ESet


def energy_four_loops(A, B, kind):
    """The energy as four nested loops, a∘b recomputed for every quadruple."""
    ctx = A.ctx
    op = ctx.add if kind == "additive" else ctx.mul
    count = 0
    for a in A:
        for b in B:
            lhs = op(a, b)
            for a2 in A:
                for b2 in B:
                    if op(a2, b2) == lhs:
                        count += 1
    return count


def subsets(ctx):
    codes = range(ctx.q)
    return [ESet(ctx, c) for k in range(ctx.q + 1) for c in itertools.combinations(codes, k)]


def test_energy_brute_by_hand():
    ctx = make_field(5)
    s = ESet(ctx, [0, 1])
    # sums 0,1,1,2: quadruple counts 1 + 4 + 1
    assert oracle.energy_brute(s, s, "additive") == 6
    # products 0,0,0,1: 9 + 1
    assert oracle.energy_brute(s, s, "multiplicative") == 10
    with pytest.raises(ValueError):
        oracle.energy_brute(s, s, "weird")


def test_energy_brute_extension():
    ctx = make_field(2, 2)
    s = ESet(ctx, [1, 2, 3])  # nonzero elements: a subgroup of order 3
    assert oracle.energy_brute(s, s, "multiplicative") == 27


@pytest.mark.parametrize("pm", [(5, 1), (2, 2)])
def test_energy_brute_every_pair_of_subsets(pm):
    # both kinds, every ordered pair of subsets: empty sets, 0, |A| != |B|
    ctx = make_field(*pm)
    sets = subsets(ctx)
    for A, B in itertools.product(sets, repeat=2):
        for kind in ("additive", "multiplicative"):
            assert oracle.energy_brute(A, B, kind) == energy_four_loops(A, B, kind)


@pytest.mark.parametrize("pm", [(7, 2), (3, 3), (101, 1)])
def test_energy_brute_seeded_sets(pm):
    ctx = make_field(*pm)
    rng = random.Random(ctx.q)
    for size_a, size_b in [(1, 1), (5, 5), (9, 4), (3, 12)]:
        A = ESet(ctx, [0] + rng.sample(range(1, ctx.q), size_a - 1))
        B = ESet(ctx, rng.sample(range(ctx.q), size_b))
        for kind in ("additive", "multiplicative"):
            assert oracle.energy_brute(A, B, kind) == energy_four_loops(A, B, kind)
            assert oracle.energy_brute(B, A, kind) == energy_four_loops(B, A, kind)


def test_energy_brute_one_product_per_pair(monkeypatch):
    ctx = make_field(3, 3)
    A, B = ESet(ctx, [0, 1, 5, 7, 20]), ESet(ctx, [2, 3, 26])
    calls = []
    real = Field.mul

    def counting(self, x, y):
        calls.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(Field, "mul", counting)
    pairs = len(A) * len(B)
    expect = energy_four_loops(A, B, "multiplicative")
    assert len(calls) == pairs + pairs ** 2  # the spy sees the four loops' products
    calls.clear()
    assert oracle.energy_brute(A, B, "multiplicative") == expect
    assert len(calls) == pairs
    assert sorted(calls) == sorted(itertools.product(A, B))


def test_product_set_brute():
    ctx = make_field(7)
    out = oracle.product_set_brute(ESet(ctx, [1, 2, 4]), ESet(ctx, [1, 3]))
    assert out == [1, 2, 3, 4, 5, 6]
    assert isinstance(out, list)


def test_triple_cover_brute():
    ctx = make_field(7)
    aprime = ESet(ctx, [1, 2])
    c = ESet(ctx, [1, 3])
    assert oracle.triple_cover_brute(aprime, c, 1, 2, 2) == 1
    assert oracle.triple_cover_brute(aprime, c, 1, 3, 1) == 0
    with pytest.raises(ValueError):
        oracle.triple_cover_brute(aprime, ESet(ctx, [0, 1]), 1, 1, 1)


def test_difference_count_brute():
    ctx = make_field(7)
    g = ESet(ctx, [1, 2, 4])
    assert oracle.difference_count_brute(g, g, 1) == 1  # only 2 - 1
    full = ESet(ctx, range(1, 7))
    assert oracle.difference_count_brute(full, full, 1) == 5


@pytest.mark.parametrize("p", [2, 7, 101])
def test_difference_count_brute_prime_field_matches_sub(p):
    ctx = make_field(p)
    rng = random.Random(p)
    for _ in range(6):
        G = ESet(ctx, rng.sample(range(p), rng.randint(0, min(p, 12))))
        H = ESet(ctx, rng.sample(range(p), rng.randint(1, min(p, 12))))
        for d in {0, 1, p - 1, rng.randrange(p)}:
            expect = sum(ctx.sub(g, h) == d for g in G for h in H)
            assert oracle.difference_count_brute(G, H, d) == expect


def test_subfield_intersection_brute():
    ctx = make_field(2, 4)
    assert oracle.subfield_intersection_brute(ESet(ctx, [1, 6, 7]), 2) == 3
    assert oracle.subfield_intersection_brute(ESet(ctx, [2, 3]), 1) == 0


def test_budget_guards():
    tight = oracle.OracleBudget(max_quadruples=10, max_q=64)
    ctx = make_field(13)
    s = ESet(ctx, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="budget"):
        oracle.energy_brute(s, s, "additive", tight)
    with pytest.raises(ValueError, match="budget"):
        oracle.product_set_brute(ESet(make_field(97), [1]), ESet(make_field(97), [1]), tight)
    with pytest.raises(ValueError):
        oracle.OracleBudget(max_quadruples=0)


def test_energy_budget_counts_quadruples():
    # the guard is (|A||B|)^2 ordered quadruples, as for the four-loop oracle
    ctx = make_field(13)
    A, B = ESet(ctx, [1, 2, 3]), ESet(ctx, [0, 5])
    for kind in ("additive", "multiplicative"):
        with pytest.raises(ValueError, match="36 loop iterations"):
            oracle.energy_brute(A, B, kind, oracle.OracleBudget(max_quadruples=35))
        exact = oracle.OracleBudget(max_quadruples=36)
        assert oracle.energy_brute(A, B, kind, exact) == energy_four_loops(A, B, kind)


def test_oracle_imports_no_kernels():
    # the reference stays apart from what it checks: no numpy, no hashing
    # containers, and from sets only the set type and the field check
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(("." * node.level) + (node.module or ""), alias.name)
                         for alias in node.names]
    assert imported  # the walk saw the imports
    for module, name in imported:
        root = module.lstrip(".").split(".")[0]
        assert root not in ("numpy", "collections"), (module, name)
        if module.lstrip(".") == "sets":
            assert name in ("ESet", "_same_field"), name
        assert module.lstrip(".") not in ("energy", "subgroups", "gauss"), module
