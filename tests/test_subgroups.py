import math
from fractions import Fraction

import numpy as np
import pytest

from sumprodlab import sets, subgroups
from sumprodlab.energy import energy
from sumprodlab.fields import TABLE_LIMIT, Field, divisors, make_field
from sumprodlab.sets import ESet, product_set
from sumprodlab.subgroups import (DIFF_RATIO_EXPONENT_EXT,
                                  DIFF_RATIO_EXPONENT_PRIME,
                                  GCD_CONDITION_DELTA,
                                  OVERLAP_CONDITION_DELTA, SubgroupInfo,
                                  difference_count, gcd_growth_condition,
                                  nth_power_subgroup, subfield_intersection,
                                  subfield_overlap_condition,
                                  subgroup_additive_energy,
                                  subgroup_energy_exponent, subgroup_of_order,
                                  subgroup_orders)


def test_exponent_constants_frozen():
    assert GCD_CONDITION_DELTA == Fraction(119, 605)
    assert OVERLAP_CONDITION_DELTA == Fraction(486, 605)
    assert DIFF_RATIO_EXPONENT_PRIME == Fraction(26, 27)
    assert DIFF_RATIO_EXPONENT_EXT == Fraction(559, 560)


def test_subgroup_of_order_frozen():
    f7 = make_field(7)
    g = subgroup_of_order(f7, 3)
    assert set(g.elements.codes) == {1, 2, 4}
    assert g.order == 3
    assert g.generator_power == 2  # 3^2 in GF(7)
    assert g.n is None
    assert subgroup_of_order(f7, 1).elements.codes == (1,)
    full = subgroup_of_order(f7, 6)
    assert set(full.elements.codes) == {1, 2, 3, 4, 5, 6}
    with pytest.raises(ValueError, match="divide"):
        subgroup_of_order(f7, 4)
    with pytest.raises(ValueError):
        subgroup_of_order(f7, 0)


@pytest.mark.parametrize("pm,t", [((2, 23), 47), ((2 ** 31 - 1, 1), 331)])
def test_subgroup_of_order_above_table_limit(pm, t):
    # fields above the dense-count limit still give a subgroup in O(t) work
    ctx = make_field(*pm)
    assert ctx.q > TABLE_LIMIT
    G = subgroup_of_order(ctx, t)
    assert type(G.generator_power) is int
    assert G.generator_power == ctx.pow(ctx.generator(), (ctx.q - 1) // t)
    assert len(G.elements) == t and 1 in G.elements
    assert all(ctx.pow(x, t) == 1 for x in G.elements)
    assert product_set(G.elements, G.elements) == G.elements


def test_nth_power_subgroup_frozen():
    f16 = make_field(2, 4)
    g = nth_power_subgroup(f16, 5)
    assert g.order == 3 and g.n == 5
    assert set(g.elements.codes) == {1, 6, 7}
    # n coprime to q-1 gives the whole unit group
    assert nth_power_subgroup(f16, 2).order == 15
    with pytest.raises(ValueError):
        nth_power_subgroup(f16, 0)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_orders_and_power_indices_must_be_integers(bad):
    # True is not 1 and 2.0 is not 2: both raise ValueError, not a numpy TypeError
    f13 = make_field(13)
    with pytest.raises(ValueError, match="divide"):
        subgroup_of_order(f13, bad)
    with pytest.raises(ValueError, match="positive integer"):
        nth_power_subgroup(f13, bad)


def test_numpy_orders_and_power_indices_become_ints():
    f13 = make_field(13)
    G = subgroup_of_order(f13, np.int64(4))
    assert type(G.order) is int and G == subgroup_of_order(f13, 4)
    H = nth_power_subgroup(f13, np.int32(3))
    assert type(H.n) is int and type(H.order) is int and H == nth_power_subgroup(f13, 3)


def test_subgroup_info_validation():
    f7 = make_field(7)
    with pytest.raises(ValueError, match="order"):
        SubgroupInfo(ESet(f7, [1, 2]), 3, 2)
    with pytest.raises(ValueError, match="0 cannot"):
        SubgroupInfo(ESet(f7, [0, 1]), 2, 2)
    with pytest.raises(ValueError, match="contain 1"):
        SubgroupInfo(ESet(f7, [2, 4]), 2, 2)


def test_subfield_intersection_frozen():
    f16 = make_field(2, 4)
    g = nth_power_subgroup(f16, 5)
    assert subfield_intersection(g, 2) == (3, 3)  # {1,6,7} lies inside GF(4)
    assert subfield_intersection(g, 1) == (1, 1)
    f9 = make_field(3, 2)
    squares = nth_power_subgroup(f9, 2)
    assert subfield_intersection(squares, 1) == (2, 2)


def test_subfield_intersection_validation():
    f16 = make_field(2, 4)
    plain = subgroup_of_order(f16, 3)
    with pytest.raises(ValueError, match="power index"):
        subfield_intersection(plain, 2)
    g = nth_power_subgroup(f16, 5)
    with pytest.raises(ValueError, match="proper divisor"):
        subfield_intersection(g, 3)
    with pytest.raises(ValueError, match="proper divisor"):
        subfield_intersection(g, 4)
    with pytest.raises(ValueError):
        subfield_intersection(g, 0)


def test_subfield_intersection_degree_is_an_integer():
    # bools and non-integers are not degrees (True once counted as nu = 1)
    G = nth_power_subgroup(make_field(3, 4), 5)
    assert subfield_intersection(G, 1) == (2, 2)
    assert subfield_intersection(G, np.int64(2)) == subfield_intersection(G, 2)
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="is not a proper divisor of m = 4"):
            subfield_intersection(G, bad)


def test_gcd_growth_condition_frozen():
    f16 = make_field(2, 4)
    rows = gcd_growth_condition(f16, 5)
    assert [r.nu for r in rows] == [1, 2]
    r1, r2 = rows
    delta = 119 / 605
    assert r1.lhs == 5.0 and r2.lhs == 5.0
    assert math.isclose(r1.rhs, 5 ** delta * 16 ** (1 - delta) / 2)
    assert math.isclose(r2.rhs, 5 ** delta * 16 ** (1 - delta) / 4)
    assert r1.pass_at_constant_one is True
    assert r2.pass_at_constant_one is False
    assert math.isclose(r2.ratio, 1.5714, rel_tol=1e-4)
    # custom exponent changes the verdict
    lax = gcd_growth_condition(f16, 5, delta=0.99)
    assert lax[1].pass_at_constant_one is False
    assert gcd_growth_condition(make_field(7), 3) == []
    with pytest.raises(ValueError):
        gcd_growth_condition(f16, 7)


def test_gcd_growth_condition_index_is_an_integer():
    # bools and non-integers are not power indices (True once gave the rows of n = 1)
    f81 = make_field(3, 4)
    rows = gcd_growth_condition(f81, np.int64(5))
    assert rows == gcd_growth_condition(f81, 5)
    assert [type(r.nu) for r in rows] == [int, int]
    for bad in (True, 5.0, "5", None):
        with pytest.raises(ValueError, match="must divide q - 1 = 80"):
            gcd_growth_condition(f81, bad)


def test_small_subgroup_of_a_large_field_builds_no_table(monkeypatch):
    # 3 powers of the generator of GF(2^22) are listed by doubling, not sliced
    # from a table of all 4,194,303
    ctx = make_field(2, 22)
    counts = []
    real = Field.powers

    def spy(ctx_, h, count):
        counts.append(count)
        return real(ctx_, h, count)

    monkeypatch.setattr(Field, "powers", spy)
    G = subgroup_of_order(ctx, 3)
    assert counts == [3] and G.order == 3
    assert not hasattr(ctx, "_generator_table")


def test_subfield_overlap_condition_frozen():
    f16 = make_field(2, 4)
    g = nth_power_subgroup(f16, 5)
    rows = subfield_overlap_condition(g)
    assert [r.nu for r in rows] == [1, 2]
    assert rows[0].lhs == 1.0 and rows[1].lhs == 3.0
    assert math.isclose(rows[0].rhs, 3 ** (486 / 605))
    assert rows[0].pass_at_constant_one is True
    assert rows[1].pass_at_constant_one is False
    prime_g = nth_power_subgroup(make_field(7), 2)
    assert subfield_overlap_condition(prime_g) == []


def test_difference_count_frozen():
    f7 = make_field(7)
    g = ESet(f7, [1, 2, 4])
    dc = difference_count(g, g, 1)
    assert dc.count == 1
    assert math.isclose(dc.ratio, 1 / 3 ** (26 / 27))
    assert dc.exponent == 26 / 27
    full = ESet(f7, [1, 2, 3, 4, 5, 6])
    assert difference_count(full, full, 1).count == 5
    ext = make_field(3, 2)
    units = ESet(ext, [1, 2])
    dce = difference_count(units, units, 1)
    assert dce.count == 1
    assert math.isclose(dce.ratio, 1 / 2 ** (559 / 560))
    assert dce.exponent == 559 / 560


def test_difference_count_validation():
    f7 = make_field(7)
    g = ESet(f7, [1, 2, 4])
    with pytest.raises(ValueError, match="nonzero"):
        difference_count(g, g, 0)
    with pytest.raises(ValueError, match="nonempty"):
        difference_count(ESet(f7, []), g, 1)
    with pytest.raises(ValueError):
        difference_count(g, ESet(make_field(11), [1]), 1)


def test_subgroup_energy_exponent_frozen():
    f5 = make_field(5)
    g = subgroup_of_order(f5, 2)  # {1, 4}
    assert set(g.elements.codes) == {1, 4}
    se = subgroup_energy_exponent(g)
    assert se.value == 6
    assert math.isclose(se.exponent, math.log(6) / math.log(2))
    with pytest.raises(ValueError):
        subgroup_energy_exponent(subgroup_of_order(f5, 1))


def test_subgroup_orders():
    assert subgroup_orders(make_field(7)) == [1, 2, 3, 6]
    assert subgroup_orders(make_field(2, 4)) == [1, 3, 5, 15]
    assert subgroup_orders(make_field(2)) == [1]


def _orbit_energy(G):
    return subgroups._orbit_energy(G.ctx, G.elements.codes)


@pytest.mark.parametrize("pm", [(2, 3), (2, 10), (3, 5), (7, 4), (101, 1), (8191, 1)])
def test_orbit_energy_matches_kernel(pm, monkeypatch):
    # every n | q - 1: G on both sides of the |G|^2 > q - 1 crossover, and
    # (for odd q) with -1 in G and not
    ctx = make_field(*pm)
    kernel_calls = []
    real_pair_counts = sets._pair_counts

    def spy(ctx_, xs, ys, op):
        assert xs is ys and xs.dtype == np.int64 and op is Field.vadd
        kernel_calls.append(xs.size)
        return real_pair_counts(ctx_, xs, ys, op)

    monkeypatch.setattr(sets, "_pair_counts", spy)
    minus_one = set()
    expected = {}
    for n in divisors(ctx.q - 1):
        G = nth_power_subgroup(ctx, n)
        expect = expected[n] = energy(G.elements).value
        assert _orbit_energy(G) == expect
        before = len(kernel_calls)
        assert subgroup_additive_energy(G) == expect
        assert (len(kernel_calls) > before) == (G.order ** 2 <= ctx.q - 1)
        minus_one.add(ctx.neg(1) in G.elements)
    assert minus_one == ({True} if ctx.p == 2 else {True, False})
    # the coset representatives above fit one block; split them into many
    monkeypatch.setattr(sets, "_BLOCK", 7)
    for n, expect in expected.items():
        assert _orbit_energy(nth_power_subgroup(ctx, n)) == expect
    assert subgroup_energy_exponent(nth_power_subgroup(ctx, 1)).value == \
        energy(nth_power_subgroup(ctx, 1).elements).value


def test_orbit_energy_validation():
    f7 = make_field(7)
    with pytest.raises(ValueError, match="divide"):
        subgroup_additive_energy(SubgroupInfo(ESet(f7, [1, 2, 3, 4]), 4, 1))
    # a set that passes SubgroupInfo's checks but is not closed breaks the mass identity
    with pytest.raises(RuntimeError, match="add up"):
        subgroups._orbit_energy(f7, np.array([1, 3, 4]))


def test_small_subgroup_energy_checks_the_pair_mass(monkeypatch):
    # below the crossover E+(G) is energy(G), and a pair count that loses a
    # pair fails energy's |A||B| mass check, for both kinds and through
    # subgroup_additive_energy alike
    ctx = make_field(101)
    G = subgroup_of_order(ctx, 5)
    A, B = ESet(ctx, [1, 2, 3, 50]), ESet(ctx, [5, 7])
    assert subgroup_additive_energy(G) == energy(G.elements).value
    real = sets._pair_counts

    def short(*args):
        values, counts = real(*args)
        counts[0] -= 1
        return values, counts

    monkeypatch.setattr(sets, "_pair_counts", short)
    calls = (lambda: energy(G.elements), lambda: energy(A, B),
             lambda: energy(A, B, kind="multiplicative"), lambda: subgroup_additive_energy(G))
    for call in calls:
        with pytest.raises(RuntimeError, match="mass does not match"):
            call()
