"""Exact arithmetic in GF(p) and GF(p^m).

An element of GF(p^m) is an integer code in [0, p^m): the polynomial
a0 + a1*t + ... + a_{m-1}*t^(m-1) is stored as a0 + a1*p + ... + a_{m-1}*p^(m-1).
Multiplication reduces modulo a monic irreducible polynomial picked
deterministically (the one whose low-coefficient vector has the smallest
base-p value), so a field is pinned by (p, m) alone and codes are portable.

Field contexts are immutable after construction.  Every per-field table
lives on the Field: the generator, the trace basis, the subfields and the
p-th roots of unity.  Each is a write-once cache computed on first use and
handed out read-only; recomputing one in a race is idempotent, so contexts
may be shared between threads.  Powers of an element are listed by
doubling (powers) and not cached: a subgroup of order t costs O(t) work
whatever the field order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["Field", "make_field", "is_prime", "factorize", "divisors", "MAX_ORDER",
           "TABLE_LIMIT"]

MAX_ORDER = 2 ** 31  # keeps every count downstream inside exact 64-bit integer range
TABLE_LIMIT = 1 << 22  # longest q-length int64 array: the dense pair bincount
_BLOCK = 1 << 20       # elements per block of an array operation, divided by Field.width

# Witnesses making Miller-Rabin deterministic far beyond 2^31.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as sorted (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    ds = [1]
    for prime, exp in factorize(n):
        ds = [d * prime ** k for d in ds for k in range(exp + 1)]
    return sorted(ds)


# ---------------------------------------------------------------------------
# dense polynomials over GF(p): coefficient lists, lowest degree first

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, f, p):
    """Remainder of a modulo monic f."""
    a = list(a)
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k] % p
        if c:
            off = k - df
            for i in range(df):
                a[off + i] = (a[off + i] - c * f[i]) % p
        a[k] = 0
    return _trim([x % p for x in a[:df]])


def _poly_powmod(base, e, f, p):
    result = [1]
    b = _poly_mod(base, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, b, p), f, p)
        e >>= 1
        if e:
            b = _poly_mod(_poly_mul(b, b, p), f, p)
    return result


def _poly_gcd(a, b, p):
    a = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, monic, p)
    return a


def _poly_is_irreducible(f, p):
    """True iff monic f of degree >= 2 has no factor of degree <= deg(f)/2."""
    deg = len(f) - 1
    if f[0] == 0:  # divisible by x
        return False
    u = [0, 1]
    for _ in range(deg // 2):
        u = _poly_powmod(u, p, f, p)  # iterated Frobenius: u = x^(p^d) mod f
        diff = list(u) + [0] * (2 - len(u))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, f, p)
        if len(g) > 1:
            return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over GF(p).

    Candidates x^m + a_{m-1} x^{m-1} + ... + a_0 are ordered by the base-p
    value a_0 + a_1 p + ... of the lower coefficient vector.
    """
    for k in range(p ** m):
        digits = []
        v = k
        for _ in range(m):
            digits.append(v % p)
            v //= p
        f = digits + [1]
        if _poly_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------


def _read_only(a):
    a.flags.writeable = False
    return a


class Field:
    """A finite field GF(p^m) whose elements are integer codes in [0, q)."""

    def __init__(self, p: int, m: int = 1):
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"extension degree must be a positive integer, got {m!r}")
        # before Miller-Rabin and p ** m, which take seconds on a huge p or m
        if type(p) is int and (p > MAX_ORDER or m > 31 and p > 1):
            raise ValueError("field order exceeds the supported limit 2^31")
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ValueError(f"characteristic {p!r} is not a prime")
        q = p ** m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported limit 2^31")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = (0, 1) if m == 1 else smallest_irreducible(p, m)
        self._red = self._reduction_rows() if m > 1 else None
        self._place = [p ** i for i in range(m)]
        # Scratch charged per element of an array operation's output, in
        # int64 arrays, by which the pair kernel sizes its blocks.  For m > 1
        # vmul keeps m + 2 arrays of the output shape alive (m low rows, one
        # high row, one product) besides the 2m digit arrays of its inputs;
        # the charge 4(2m + 1) is larger because mid-sized arrays come from
        # the heap and stay resident once freed (measured as peak RSS),
        # unlike the one large array of a prime field.
        self.width = 1 if m == 1 else 4 * (2 * m + 1)
        # write-once caches
        self._generator = None
        self._trace_basis = None
        self._subfields = {}

    def _reduction_rows(self):
        # row k-m holds the coefficients of t^k mod modulus, m <= k <= 2m-2
        p, m, f = self.p, self.m, self.modulus
        base = [(-f[i]) % p for i in range(m)]
        rows = [base]
        for _ in range(m - 2):
            prev = rows[-1]
            top = prev[m - 1]
            row = [0] + list(prev[: m - 1])
            if top:
                row = [(row[i] + top * base[i]) % p for i in range(m)]
            rows.append(row)
        return rows

    # -- representation -----------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p and self.m == other.m

    def __hash__(self):
        return hash((self.p, self.m))

    def elements(self):
        """All element codes, ascending."""
        return range(self.q)

    def check(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element code of {self!r}")
        return x

    def decode(self, x) -> tuple[int, ...]:
        """Coefficient vector (a0, ..., a_{m-1}) of an element code."""
        self.check(x)
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(x % p)
            x //= p
        return tuple(out)

    def encode(self, digits) -> int:
        """Element code of a coefficient vector."""
        digits = list(digits)
        if len(digits) != self.m or any(not 0 <= d < self.p for d in digits):
            raise ValueError(f"bad coefficient vector {digits!r} for {self!r}")
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- arithmetic -----------------------------------------------------------

    def add(self, x, y):
        self.check(x)
        self.check(y)
        p = self.p
        if self.m == 1:
            return (x + y) % p
        out = 0
        mult = 1
        while x or y:
            out += ((x % p) + (y % p)) % p * mult
            x //= p
            y //= p
            mult *= p
        return out

    def neg(self, x):
        self.check(x)
        p = self.p
        if self.m == 1:
            return (-x) % p
        out = 0
        mult = 1
        while x:
            d = x % p
            if d:
                out += (p - d) * mult
            x //= p
            mult *= p
        return out

    def sub(self, x, y):
        self.check(x)
        self.check(y)
        p = self.p
        if self.m == 1:
            return (x - y) % p
        out = 0
        mult = 1
        while x or y:
            out += ((x % p) - (y % p)) % p * mult
            x //= p
            y //= p
            mult *= p
        return out

    def mul(self, x, y):
        self.check(x)
        self.check(y)
        p = self.p
        if self.m == 1:
            return x * y % p
        if x == 0 or y == 0:
            return 0
        m = self.m
        a = []
        v = x
        for _ in range(m):
            a.append(v % p)
            v //= p
        b = []
        v = y
        for _ in range(m):
            b.append(v % p)
            v //= p
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        red = self._red
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                row = red[k - m]
                for i in range(m):
                    prod[i] += c * row[i]
        code = 0
        for i in range(m - 1, -1, -1):
            code = code * p + prod[i] % p
        return code

    def pow(self, x, e):
        """x**e by square-and-multiply; e must be a nonnegative integer."""
        self.check(x)
        if e < 0:
            raise ValueError("negative exponents are not supported; use inv()")
        if self.m == 1:
            return pow(x, e, self.p)
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def inv(self, x):
        self.check(x)
        if x == 0:
            raise ValueError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(x, self.p - 2, self.p)
        return self.pow(x, self.q - 2)

    # -- array arithmetic -----------------------------------------------------
    # Inputs are broadcastable arrays of valid codes; the result is an int64
    # code array of the broadcast shape.

    def _digits(self, x):
        """The m base-p digits of x, lowest first, by m - 1 divmods."""
        digits = []
        for _ in range(self.m - 1):
            x, d = np.divmod(x, self.p)
            digits.append(d)
        digits.append(x)
        return digits

    def _digitwise(self, x, y, op):
        p = self.p
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self.m == 1:
            return op(x, y) % p
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
        for w, dx, dy in zip(self._place, self._digits(x), self._digits(y)):
            d = op(dx, dy)
            d %= p
            d *= w
            out += d
        return out

    def vadd(self, x, y):
        """Elementwise x + y over code arrays."""
        return self._digitwise(x, y, np.add)

    def vsub(self, x, y):
        """Elementwise x - y over code arrays."""
        return self._digitwise(x, y, np.subtract)

    def vmul(self, x, y):
        """Elementwise x * y over code arrays: digit convolution, then reduction.

        The m low coefficients (degree < m) accumulate in place; each high
        coefficient k >= m is built alone, reduced mod p and folded into the
        low ones through t^k mod modulus.  A low coefficient is at most
        (2m - 1)(p - 1)^2 < 2^37, so int64 holds every value exactly.
        """
        p, m = self.p, self.m
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if m == 1:
            return x * y % p
        dx, dy = self._digits(x), self._digits(y)
        low = np.zeros((m,) + np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
        for i in range(m):
            for j in range(m - i):
                low[i + j] += dx[i] * dy[j]
        for k in range(2 * m - 2, m - 1, -1):
            high = dx[k - m + 1] * dy[m - 1]
            for i in range(k - m + 2, m):
                high += dx[i] * dy[k - i]
            high %= p
            for i, r in enumerate(self._red[k - m]):
                if r:
                    low[i] += high * r
        out = low[m - 1] % p
        for i in range(m - 2, -1, -1):
            out *= p
            out += low[i] % p
        return out

    def vtrace(self, x):
        """Elementwise trace down to the prime field, as codes < p."""
        x = np.asarray(x, dtype=np.int64)
        out = np.zeros(x.shape, dtype=np.int64)
        for d, t in zip(self._digits(x), self._trace_basis_codes()):
            out += d * t
        return out % self.p

    def powers(self, h, count):
        """h^0, ..., h^(count-1) as an int64 array, by doubling.

        out[k:2k] = out[:k] * h^k, taken in blocks of about _BLOCK / width
        elements, so a table of n powers costs log2(n) array steps.
        """
        self.check(h)
        out = np.empty(count, dtype=np.int64)
        out[:1] = 1
        k, hk = 1, h
        rows = max(1, _BLOCK // self.width)
        while k < count:
            n = min(k, count - k)
            for i in range(0, n, rows):
                j = min(n, i + rows)
                out[k + i:k + j] = self.vmul(out[i:j], hk)
            k += n
            hk = self.mul(hk, hk)
        return out

    # -- structure ------------------------------------------------------------

    def _trace_basis_codes(self):
        """Tr(t^i) for i < m, built once through scalar Frobenius powers."""
        tb = self._trace_basis
        if tb is None:
            tb = []
            for i in range(self.m):
                z = self.p ** i
                acc = z
                w = z
                for _ in range(self.m - 1):
                    w = self.pow(w, self.p)
                    acc = self.add(acc, w)
                if acc >= self.p:
                    raise RuntimeError("trace left the prime subfield; modulus arithmetic is broken")
                tb.append(acc)
            tb = tuple(tb)
            self._trace_basis = tb
        return tb

    def trace(self, x):
        """Trace down to the prime field: x + x^p + ... + x^(p^(m-1)), as a code < p.

        Computed through the trace of the power basis (the map is linear over
        the prime field), so table builds stay cheap.
        """
        self.check(x)
        if self.m == 1:
            return x
        tb = self._trace_basis_codes()
        p = self.p
        total = 0
        i = 0
        while x:
            total += (x % p) * tb[i]
            x //= p
            i += 1
        return total % p

    @functools.cached_property
    def roots(self):
        """Read-only complex array of exp(2*pi*i * k / p) for k < p."""
        ang = 2.0 * np.pi * np.arange(self.p) / self.p
        return _read_only(np.cos(ang) + 1j * np.sin(ang))

    def additive_char(self, a, x) -> complex:
        """exp(2*pi*i * Tr(a*x) / p), a unit-modulus complex number.

        Computed on its own rather than read from roots, so that checks
        comparing it with the array character sums test that table too.
        """
        angle = 2.0 * math.pi / self.p * self.trace(self.mul(a, x))
        return complex(math.cos(angle), math.sin(angle))

    def generator(self):
        """Smallest-code element of multiplicative order q - 1 (cached)."""
        g = self._generator
        if g is None:
            n = self.q - 1
            checks = [n // ell for ell, _ in factorize(n)] if n > 1 else []
            for cand in range(1, self.q):
                if all(self.pow(cand, e) != 1 for e in checks):
                    g = cand
                    break
            else:  # pragma: no cover - the group is cyclic, a generator exists
                raise RuntimeError("no generator found")
            self._generator = g
        return g

    def unit_subgroup(self, t):
        """(codes, h): the order-t subgroup of the unit group and its generator.

        h = g^((q-1)/t) is a Python int and codes is the int64 array
        h^0, ..., h^(t-1), checked to close (h^t = 1); t must divide q - 1.
        """
        n = self.q - 1
        if t < 1 or n % t != 0:
            raise ValueError(f"{t} does not divide q - 1 = {n}")
        h = self.pow(self.generator(), n // t)
        codes = self.powers(h, t)
        if self.mul(int(codes[-1]), h) != 1:
            raise RuntimeError("subgroup enumeration did not close")
        return codes, h

    def subfield(self, nu):
        """The subfield of order p^nu as an ESet; nu must divide m.

        These are exactly the fixed points of x -> x^(p^nu): {0} together
        with the multiplicative subgroup of order p^nu - 1.
        """
        if not isinstance(nu, int) or nu < 1 or self.m % nu != 0:
            raise ValueError(f"{nu!r} does not divide the extension degree {self.m}")
        cached = self._subfields.get(nu)
        if cached is None:
            from .sets import ESet

            codes, _ = self.unit_subgroup(self.p ** nu - 1)
            cached = ESet(self, [0] + codes.tolist())
            self._subfields[nu] = cached
        return cached


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> Field:
    """Shared field context for GF(p^m); repeated calls return the same object."""
    return Field(p, m)
