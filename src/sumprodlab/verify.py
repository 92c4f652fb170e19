"""Self-verification suites: every fast path against a loop oracle or an
exact identity.

The oracle checks of energies and product sets also run each pair-count
kernel of sets that admits an instance, whichever one sets' chooser would
pick: the merge and the dense count always, and for sums the tiles (at two
intervals) in prime fields and, where q*p <= _BLOCK, the Z_p^m transform,
which counts exactly mod a prime P > q with p | P - 1.

All randomness is drawn from fixed-seed generators, so a suite run is
reproducible.  Check functions raise on the first violation and return the
number of instances exercised (optionally with a detail string); run_suite
wraps them into CheckResult records and never raises itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import oracle, sets
from .energy import (cauchy_schwarz_chain, energy, growth_chain_report,
                     make_triple_witness, pair_energy_bound_ratio,
                     plunnecke_ruzsa_check, product_shift_identity,
                     shifted_subgroup_ratio, triple_cover_count,
                     triple_cover_totals)
from .families import draw_shift, stream_rng
from .fields import _BLOCK, Field, divisors, make_field
from .gauss import gauss_bounds_report, gauss_sum, gauss_sum_by_subgroup, subgroup_character_sum
from .sets import ESet, coset_scan, product_set, shift
from .subgroups import (difference_count, gcd_growth_condition,
                        nth_power_subgroup, subfield_intersection,
                        subfield_overlap_condition, subgroup_of_order)

_SEED = 0x5EED5EED


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    count: int
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status} {self.name} (n={self.count}, {self.seconds:.2f}s)"
        return f"{out}  {self.detail}" if self.detail else out


def _rng(tag: int) -> np.random.Generator:
    return stream_rng(_SEED, tag)


def _primes_up_to(n: int):
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve).tolist()


def _prime_power_fields(max_q: int, ms=None):
    """(p, m) with p prime and p^m <= max_q, sorted by field order."""
    out = []
    for p in _primes_up_to(max_q):
        m = 1
        while p ** m <= max_q:
            if ms is None or m in ms:
                out.append((p, m))
            m += 1
    return sorted(out, key=lambda pm: (pm[0] ** pm[1], pm[0]))


def _spread(seq, k: int):
    """Up to k entries spread evenly over seq, endpoints included."""
    seq = list(seq)
    if len(seq) <= k:
        return seq
    idx = np.linspace(0, len(seq) - 1, k).round().astype(int)
    return [seq[i] for i in sorted(set(idx.tolist()))]


def _sample_set(rng, ctx, size: int, nonzero: bool = False) -> ESet:
    lo = 1 if nonzero else 0
    size = min(size, ctx.q - lo)
    codes = rng.choice(ctx.q - lo, size=size, replace=False) + lo
    return ESet(ctx, codes)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _every_kernel(ctx, A: ESet, B: ESet, op):
    """(kernel, values, counts) from each pair-count kernel that admits op over A x B.

    op is Field.vadd or Field.vmul.  The merge and the dense count take
    both; sums also go to the tiles at nb = 2 in prime fields, and to the
    Z_p^m transform, exact mod a prime P > q, for m > 1 and q*p <= _BLOCK.
    """
    xs, ys = A.codes, B.codes
    full = {"dense": sets._dense_counts(ctx, xs, ys, op)}
    if op is Field.vadd and ctx.m == 1:
        full["tiles"] = sets._tiled_counts(ctx.p, xs, ys, 2, False, False)
    elif op is Field.vadd and ctx.q * ctx.p <= _BLOCK:
        full["transform"] = sets._transform_counts(ctx, xs, ys, False, False)
    runs = [("merge", *sets._merge_counts(ctx, xs, ys, op))]
    for kernel, counts in full.items():
        values = np.flatnonzero(counts)
        runs.append((kernel, values, counts[values]))
    return runs


# ---------------------------------------------------------------------------
# identities


def check_field_arithmetic(max_q):
    """Commutativity, associativity, distributivity, inverses, Frobenius, trace."""
    rng = _rng(12)
    fields = _spread(_prime_power_fields(min(max_q, 512)), 15)
    per = 450 // len(fields) + 1
    for p, m in fields:
        ctx = make_field(p, m)
        g = ctx.generator()
        if ctx.pow(g, ctx.q - 1) != 1:
            raise RuntimeError(f"generator order broken in {ctx!r}")
        for _ in range(per):
            x, y, z = (int(v) for v in rng.integers(0, ctx.q, size=3))
            if ctx.mul(x, y) != ctx.mul(y, x):
                raise RuntimeError(f"commutativity failed in {ctx!r}")
            if ctx.mul(ctx.mul(x, y), z) != ctx.mul(x, ctx.mul(y, z)):
                raise RuntimeError(f"associativity failed in {ctx!r}")
            if ctx.mul(x, ctx.add(y, z)) != ctx.add(ctx.mul(x, y), ctx.mul(x, z)):
                raise RuntimeError(f"distributivity failed in {ctx!r}")
            if ctx.sub(x, y) != ctx.add(x, ctx.neg(y)):
                raise RuntimeError(f"sub/neg mismatch in {ctx!r}")
            if x and ctx.mul(x, ctx.inv(x)) != 1:
                raise RuntimeError(f"inverse failed in {ctx!r}")
            if ctx.pow(ctx.add(x, y), p) != ctx.add(ctx.pow(x, p), ctx.pow(y, p)):
                raise RuntimeError(f"Frobenius additivity failed in {ctx!r}")
            if ctx.trace(ctx.add(x, y)) != (ctx.trace(x) + ctx.trace(y)) % p:
                raise RuntimeError(f"trace additivity failed in {ctx!r}")
            if ctx.trace(ctx.pow(x, p)) != ctx.trace(x):
                raise RuntimeError(f"trace Frobenius invariance failed in {ctx!r}")
    return len(fields) * per


def check_product_shift_identity(max_q):
    """The rearrangement identity on random (a1, a2, a3, c, b, d) tuples."""
    rng = _rng(2)
    primes = _spread([f for f in _prime_power_fields(min(max_q, 4096), ms={1})
                      if f[0] >= 5], 13)
    exts = _spread(_prime_power_fields(min(max_q, 4096), ms={2, 3, 4}), 12)
    fields = primes + exts
    per = 10000 // len(fields) + 1
    for p, m in fields:
        ctx = make_field(p, m)
        for _ in range(per):
            a1, a2, a3 = rng.choice(ctx.q, size=3, replace=False).tolist()
            b = int(rng.integers(ctx.q))
            c = int(rng.integers(1, ctx.q))
            d = int(rng.integers(1, ctx.q))
            if not product_shift_identity(ctx, a1, a2, a3, c, b, d):
                raise RuntimeError(
                    f"identity failed in {ctx!r} at {(a1, a2, a3, c, b, d)}")
    return len(fields) * per, f"fields={len(fields)}"


def check_triple_cover_totals(max_q):
    """Order-exchange totals (asserted internally) on random shifted sets."""
    rng = _rng(3)
    fields = [f for f in _prime_power_fields(min(max_q, 512)) if f[0] ** f[1] >= 7]
    for _ in range(100):
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        A = _sample_set(rng, ctx, int(rng.integers(1, 13)))
        C = _sample_set(rng, ctx, int(rng.integers(1, 13)), nonzero=True)
        d = int(rng.integers(1, ctx.q))
        triple_cover_totals(shift(A, d), C)
    return 100


def check_triple_cover_vs_brute(max_q):
    """Fast cover counts against the linear-scan oracle, plus a literal
    triple-sum identity check on tiny instances."""
    rng = _rng(30)
    fields = [f for f in _prime_power_fields(min(max_q, 512)) if f[0] ** f[1] >= 7]
    n = 0
    for i in range(60):
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        cap = 5 if i % 10 == 0 else 7  # every 10th stays tiny for the literal sum
        aprime = _sample_set(rng, ctx, int(rng.integers(1, cap)))
        C = _sample_set(rng, ctx, int(rng.integers(1, cap)), nonzero=True)
        ys = [int(v) for v in rng.integers(0, ctx.q, size=3)]
        fast = triple_cover_count(aprime, C, *ys)
        slow = oracle.triple_cover_brute(aprime, C, *ys)
        if fast != slow:
            raise RuntimeError(f"cover count mismatch in {ctx!r}: {fast} != {slow}")
        n += 1
        if i % 10 == 0:
            s = product_set(aprime, C)
            total = sum(triple_cover_count(aprime, C, y1, y2, y3)
                        for y1 in s for y2 in s for y3 in s)
            if total != len(C) * len(aprime) ** 3:
                raise RuntimeError("literal triple sum disagrees with the identity")
            n += 1
    return n


def check_subgroup_energy_cube(max_q):
    """E_mult(G) == |G|^3 for every subgroup of every field with q <= max_q."""
    n = 0
    for p, m in _prime_power_fields(min(max_q, 1024)):
        ctx = make_field(p, m)
        for t in divisors(ctx.q - 1):
            G = subgroup_of_order(ctx, t)
            e = energy(G.elements, kind="multiplicative").value
            if e != t ** 3:
                raise RuntimeError(f"E_mult = {e} != {t}^3 for order {t} in {ctx!r}")
            n += 1
    return n


# ---------------------------------------------------------------------------
# bounds


def check_cauchy_schwarz_chain(max_q):
    """The three exact chain inequalities on random witnesses."""
    rng = _rng(4)
    fields = [f for f in _prime_power_fields(min(max_q, 512)) if f[0] ** f[1] >= 11]
    done = 0
    while done < 100:
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        s = int(rng.integers(2, min(9, ctx.q - 1)))
        A = _sample_set(rng, ctx, s, nonzero=True)
        B = _sample_set(rng, ctx, len(A), nonzero=True)
        C = _sample_set(rng, ctx, int(rng.integers(2, 9)), nonzero=True)
        d = draw_shift(ctx, A, rng, 50)
        if d is None:
            continue
        s_prod = product_set(shift(A, d), C)
        if len(s_prod) < 3:
            continue
        y1, y2, y3 = s_prod.codes[rng.choice(len(s_prod), size=3, replace=False)].tolist()
        w = make_triple_witness(A, C, d, y1, y2, y3)
        cauchy_schwarz_chain(A, B, C, d, w)
        done += 1
    return done


def check_plunnecke(max_q):
    """The k <= 3 sumset/product-set inequality on random instances."""
    rng = _rng(5)
    fields = [f for f in _prime_power_fields(min(max_q, 512)) if f[0] ** f[1] >= 5]
    for i in range(200):
        mode = "additive" if i % 2 == 0 else "multiplicative"
        nonzero = mode == "multiplicative"
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        cap = min(10, ctx.q - 1)
        Y = _sample_set(rng, ctx, int(rng.integers(1, cap + 1)), nonzero=nonzero)
        k = 1 + i % 3
        Xs = [_sample_set(rng, ctx, int(rng.integers(1, cap + 1)), nonzero=nonzero)
              for _ in range(k)]
        plunnecke_ruzsa_check(Y, Xs, mode)
    return 200


def check_growth_chain(max_q):
    """K, L >= 1, the energy floor, and the recorded product-set inequality."""
    rng = _rng(15)
    fields = [f for f in _prime_power_fields(min(max_q, 512)) if f[0] ** f[1] >= 11]
    done = 0
    while done < 60:
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        s = int(rng.integers(2, min(11, ctx.q - 1)))
        A = _sample_set(rng, ctx, s, nonzero=True)
        B = _sample_set(rng, ctx, len(A), nonzero=True)
        C = _sample_set(rng, ctx, len(A), nonzero=True)
        d = draw_shift(ctx, A, rng, 50)
        if d is None:
            continue
        rep = growth_chain_report(A, B, C, d)
        if rep.K < 1 or rep.L < 1:
            raise RuntimeError("a 0-free product set shrank below max(|A|, |B|)")
        if rep.energy_ab < rep.ab_size ** 2:
            raise RuntimeError("additive energy fell below its Cauchy-Schwarz floor")
        if len(rep.inequalities) != 1 or not rep.inequalities[0].holds:
            raise RuntimeError("product-set inequality record missing or violated")
        done += 1
    return done


def check_pair_energy_bound(max_q):
    """Shape and floor checks of the prime-field pair-energy report."""
    rng = _rng(16)
    primes = [p for p, _ in _prime_power_fields(min(max_q, 997), ms={1}) if p >= 11]
    for _ in range(60):
        ctx = make_field(_pick(rng, primes))
        X = _sample_set(rng, ctx, int(rng.integers(1, 13)))
        Y = _sample_set(rng, ctx, int(rng.integers(1, 13)))
        Z = _sample_set(rng, ctx, int(rng.integers(1, 13)))
        rep = pair_energy_bound_ratio(X, Y, Z)
        if rep.energy < len(X) * len(Z):
            raise RuntimeError("energy fell below the diagonal count")
        if not (rep.bound > 0 and math.isfinite(rep.ratio)):
            raise RuntimeError("degenerate bound or ratio")
    return 60


def check_shifted_subgroup_ratio(max_q):
    """The shifted-subgroup energy ratio is finite and positive."""
    rng = _rng(17)
    pool = []
    for p, _ in _prime_power_fields(min(max_q, 499), ms={1}):
        pool.extend((p, t) for t in divisors(p - 1) if 2 <= t <= 60)
    for _ in range(40):
        p, t = _pick(rng, pool)
        ctx = make_field(p)
        gamma = subgroup_of_order(ctx, t).elements
        x = int(rng.integers(1, p))
        r = shifted_subgroup_ratio(gamma, x)
        if not (r > 0 and math.isfinite(r)):
            raise RuntimeError(f"bad ratio {r} for order {t} shifted by {x} in {ctx!r}")
    return 40


# ---------------------------------------------------------------------------
# oracle


def check_energy_vs_oracle(max_q):
    """Histogram energies equal the quadruple-loop oracle, both kinds, by every admitting kernel."""
    rng = _rng(1)
    primes = [f for f in _prime_power_fields(min(max_q, 512), ms={1}) if f[0] >= 5]
    exts = _prime_power_fields(min(max_q, 512), ms={2, 3, 4})
    for i in range(200):
        if i % 2 == 0:
            p, m = _pick(rng, primes)
            cap = 40
        else:
            p, m = _pick(rng, exts)
            cap = 15  # extension oracle loops pay per-op overhead
        ctx = make_field(p, m)
        hi = min(cap, ctx.q - 1)
        A = _sample_set(rng, ctx, int(rng.integers(1, hi + 1)))
        B = _sample_set(rng, ctx, int(rng.integers(1, hi + 1)))
        kind = "additive" if int(rng.integers(2)) == 0 else "multiplicative"
        fast = energy(A, B, kind=kind).value
        slow = oracle.energy_brute(A, B, kind)
        if fast != slow:
            raise RuntimeError(f"{kind} energy mismatch in {ctx!r}: {fast} != {slow}")
        op = Field.vadd if kind == "additive" else Field.vmul
        for kernel, _, counts in _every_kernel(ctx, A, B, op):
            if int(counts @ counts) != slow:
                raise RuntimeError(f"{kind} energy by the {kernel} kernel mismatch in {ctx!r}")
    return 200


def check_product_set_vs_oracle(max_q):
    """Fast product sets equal the loop-and-dedup oracle, by every admitting kernel."""
    rng = _rng(14)
    fields = _prime_power_fields(min(max_q, 512))
    for _ in range(150):
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        hi = min(20, ctx.q)
        A = _sample_set(rng, ctx, int(rng.integers(1, hi + 1)))
        B = _sample_set(rng, ctx, int(rng.integers(1, hi + 1)))
        slow = oracle.product_set_brute(A, B)
        if product_set(A, B).codes.tolist() != slow:
            raise RuntimeError(f"product set mismatch in {ctx!r}")
        for kernel, values, _ in _every_kernel(ctx, A, B, Field.vmul):
            if values.tolist() != slow:
                raise RuntimeError(f"product set by the {kernel} kernel mismatch in {ctx!r}")
    return 150


def check_difference_count(max_q):
    """Membership-scan difference counts equal the double-loop oracle."""
    rng = _rng(11)
    primes = [p for p, _ in _prime_power_fields(min(max_q, 997), ms={1}) if p >= 5]
    ratios = []
    for _ in range(500):
        p = _pick(rng, primes)
        ctx = make_field(p)
        small = [t for t in divisors(p - 1) if t <= 316]
        tg = _pick(rng, small)
        th = _pick(rng, [t for t in small if t * tg <= 100000])
        G = subgroup_of_order(ctx, tg).elements
        H = subgroup_of_order(ctx, th).elements
        d = int(rng.integers(1, p))
        res = difference_count(G, H, d)
        brute = oracle.difference_count_brute(G, H, d)
        if res.count != brute:
            raise RuntimeError(
                f"difference count mismatch in {ctx!r}: {res.count} != {brute}")
        ratios.append(res.ratio)
    detail = f"ratio max={max(ratios):.4f} mean={sum(ratios) / len(ratios):.4f}"
    return 500, detail


# ---------------------------------------------------------------------------
# subfields


def check_subfield_gcd(max_q):
    """The gcd intersection formula (asserted internally) over every
    (field, power index, proper subfield) with m in {2, 3, 4}."""
    n = 0
    for p, m in _prime_power_fields(min(max_q, 4096), ms={2, 3, 4}):
        ctx = make_field(p, m)
        for nn in divisors(ctx.q - 1):
            G = nth_power_subgroup(ctx, nn)
            for nu in divisors(m)[:-1]:
                subfield_intersection(G, nu)
                n += 1
    return n


def check_subfield_vs_brute(max_q):
    """Subsampled intersections against the linear-scan oracle."""
    rng = _rng(7)
    fields = _prime_power_fields(min(max_q, 4096), ms={2, 3, 4})
    done = 0
    while done < 50:
        p, m = _pick(rng, fields)
        ctx = make_field(p, m)
        nn = _pick(rng, divisors(ctx.q - 1))
        G = nth_power_subgroup(ctx, nn)
        if G.order > 512:
            continue
        nu = _pick(rng, divisors(m)[:-1])
        exact, _ = subfield_intersection(G, nu)
        if exact != oracle.subfield_intersection_brute(G.elements, nu):
            raise RuntimeError(f"intersection oracle mismatch in {ctx!r}")
        done += 1
    return done


def check_coset_scan(max_q):
    """Scan flags agree with their stats; subfields saturate their own coset."""
    rng = _rng(13)
    n = 0
    for p, m in _prime_power_fields(min(max_q, 4096), ms={2, 3, 4})[:20]:
        ctx = make_field(p, m)
        for nu in divisors(m)[:-1]:
            F = ctx.subfield(nu)
            _, ok_full = coset_scan(F, 1.0, base="subfield_size")
            if not ok_full:
                raise RuntimeError("a coset intersection exceeded the coset size")
            _, ok_half = coset_scan(F, 0.5, base="subfield_size")
            if ok_half:
                raise RuntimeError("a full subfield passed the square-root threshold")
            n += 1
        S = _sample_set(rng, ctx, min(8, ctx.q - 1))
        for base, e in (("subfield_size", 0.5), ("set_size", 9 / 11)):
            stats, ok = coset_scan(S, e, base=base)
            if not stats:
                raise RuntimeError("extension-field scan returned no cosets")
            if ok != all(st.intersection <= st.threshold for st in stats):
                raise RuntimeError("scan flag disagrees with its own stats")
            n += 1
    stats, ok = coset_scan(ESet(make_field(13), [1, 2]), 0.5)
    if not (ok and stats == []):
        raise RuntimeError("prime-field scan is not vacuous")
    return n + 1


def check_condition_reports(max_q):
    """Power-condition rows are self-consistent; prime fields give none."""
    n = 0
    for p, m in _spread(_prime_power_fields(min(max_q, 4096), ms={2, 3, 4}), 10):
        ctx = make_field(p, m)
        degrees = divisors(m)[:-1]
        for nn in _spread(divisors(ctx.q - 1), 6):
            rows = gcd_growth_condition(ctx, nn)
            if len(rows) != len(degrees):
                raise RuntimeError("one row per proper subfield expected")
            for row in rows:
                if row.pass_at_constant_one != (row.lhs <= row.rhs):
                    raise RuntimeError("condition flag disagrees with its sides")
            G = nth_power_subgroup(ctx, nn)
            overlap = subfield_overlap_condition(G)
            for row, nu in zip(overlap, degrees):
                if row.lhs != float(subfield_intersection(G, nu)[0]):
                    raise RuntimeError("overlap row disagrees with the exact count")
            n += len(rows) + len(overlap)
    ctx = make_field(17)
    if gcd_growth_condition(ctx, 4) != [] or \
            subfield_overlap_condition(nth_power_subgroup(ctx, 4)) != []:
        raise RuntimeError("prime fields must produce empty condition reports")
    return n


# ---------------------------------------------------------------------------
# gauss


def check_quadratic_gauss(max_q):
    """|S_2(1)| == sqrt(p) for every odd prime p <= 97."""
    n = 0
    for p in _primes_up_to(min(max_q, 97)):
        if p == 2:
            continue
        mag = abs(gauss_sum(make_field(p), 2, 1))
        if abs(mag - math.sqrt(p)) > 1e-9:
            raise RuntimeError(f"|S_2(1)| = {mag} != sqrt({p})")
        n += 1
    return n


def check_gauss_structure(max_q):
    """Full unit group sums to -1; the top-power subgroup is {1}."""
    n = 0
    for p, m in _spread(_prime_power_fields(min(max_q, 512)), 12):
        ctx = make_field(p, m)
        full = subgroup_of_order(ctx, ctx.q - 1).elements
        for a in {1, ctx.q - 1}:
            s = subgroup_character_sum(ctx, full, a)
            if abs(s - (-1)) > 1e-9 * ctx.q:
                raise RuntimeError(f"unit-group character sum {s} != -1 in {ctx!r}")
            n += 1
        top = nth_power_subgroup(ctx, ctx.q - 1)
        if top.elements.codes.tolist() != [1]:
            raise RuntimeError("(q-1)-th powers are not {1}")
        s1 = subgroup_character_sum(ctx, top, 1)
        if abs(s1 - ctx.additive_char(1, 1)) > 1e-9:
            raise RuntimeError("singleton character sum disagrees with the character")
        n += 1
    return n


def check_gauss_sweep(max_q):
    """Direct vs subgroup evaluation for every n | q - 1 (all fields with
    q <= min(max_q, 2000)), plus the exact magnitude bounds for n >= 2.

    Agreement and both bounds are asserted inside the called reports; a bound
    ever firing fails this check.
    """
    rng = _rng(8)
    agreements = 0
    bounds = 0
    for p, m in _prime_power_fields(min(max_q, 2000)):
        ctx = make_field(p, m)
        for nn in divisors(ctx.q - 1):
            for a in rng.integers(1, ctx.q, size=5).tolist():
                if nn >= 2:
                    gauss_bounds_report(ctx, nn, int(a))
                    bounds += 1
                else:
                    gauss_sum_by_subgroup(ctx, nn, int(a))
                agreements += 1
    return agreements, f"bound_checks={bounds}"


# ---------------------------------------------------------------------------


SUITES = {
    "identities": (
        ("field_arithmetic", check_field_arithmetic),
        ("product_shift_identity", check_product_shift_identity),
        ("triple_cover_totals", check_triple_cover_totals),
        ("triple_cover_vs_brute", check_triple_cover_vs_brute),
        ("subgroup_energy_cube", check_subgroup_energy_cube),
    ),
    "oracle": (
        ("energy_vs_oracle", check_energy_vs_oracle),
        ("product_set_vs_oracle", check_product_set_vs_oracle),
        ("difference_count_vs_oracle", check_difference_count),
    ),
    "bounds": (
        ("cauchy_schwarz_chain", check_cauchy_schwarz_chain),
        ("plunnecke_ruzsa", check_plunnecke),
        ("growth_chain", check_growth_chain),
        ("pair_energy_bound", check_pair_energy_bound),
        ("shifted_subgroup_ratio", check_shifted_subgroup_ratio),
    ),
    "subfields": (
        ("subfield_gcd_formula", check_subfield_gcd),
        ("subfield_vs_brute", check_subfield_vs_brute),
        ("coset_scan", check_coset_scan),
        ("condition_reports", check_condition_reports),
    ),
    "gauss": (
        ("quadratic_magnitude", check_quadratic_gauss),
        ("gauss_structure", check_gauss_structure),
        ("gauss_sweep", check_gauss_sweep),
    ),
}

SUITE_NAMES = ("all",) + tuple(SUITES)


def _run(name, fn, max_q) -> CheckResult:
    t0 = time.perf_counter()
    try:
        out = fn(max_q)
    except Exception as exc:  # noqa: BLE001 - verification reports, never crashes
        return CheckResult(name, False, 0, time.perf_counter() - t0,
                           f"{type(exc).__name__}: {exc}")
    count, detail = out if isinstance(out, tuple) else (out, "")
    return CheckResult(name, True, int(count), time.perf_counter() - t0, detail)


def run_suite(suite: str, max_q: int = 4096):
    """All CheckResults of one suite ("all" chains every suite in order)."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if max_q < 64:
        raise ValueError("max_q below 64 leaves the field pools empty")
    names = SUITES if suite == "all" else {suite: SUITES[suite]}
    results = []
    for checks in names.values():
        for name, fn in checks:
            results.append(_run(name, fn, max_q))
    return results
