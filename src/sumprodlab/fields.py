"""Exact arithmetic in GF(p) and GF(p^m).

An element of GF(p^m) is an integer code in [0, p^m): the polynomial
a0 + a1*t + ... + a_{m-1}*t^(m-1) is stored as a0 + a1*p + ... + a_{m-1}*p^(m-1).
Multiplication reduces modulo a monic irreducible polynomial picked
deterministically (the one whose low-coefficient vector has the smallest
base-p value), so a field is pinned by (p, m) alone and codes are portable.

Scalar mul in GF(p^m), m > 1, is one big-int product (Kronecker
substitution): each code's digits are spread into s-bit lanes with
s = bit_length((2m - 1)(p - 1)^2), the two ints are multiplied, and each
high lane folds into the low lanes through a packed row of t^k mod the
modulus, m <= k <= 2m - 2.  Those rows are remainders by _poly_mod, the one
polynomial remainder, which also serves the irreducibility test.  No lane
ever carries into the next, so the low lanes read off mod p give the
product's code.  The array operations work digit by digit instead and
share no code with it: vmul splits both code arrays into base-p digit
rows, takes their product in digit form (_digit_product, the one array
multiplication kernel, which also serves gauss's power tables) and packs
the rows back into codes.  A square through that kernel forms each cross
term once.  vtrace(x, a) gives Tr(a * x) from the quotients x // p^i, each
its digit mod p, against the form (Tr(a * t^i))_{i<m}, since the trace is
linear over GF(p), so it needs no array multiplication.

Scalar add and sub in GF(p^m), m > 1, share one base-p digit loop, as
vadd and vsub share one digit pass; neg(x) is sub(0, x).

Field contexts are immutable after construction and have no instance
__dict__ (__slots__), so attribute loads cost the same before and after a
lazy table is built.  Every per-field table lives on the Field as a
write-once cache, computed on first use and handed out read-only.  The
generator (which generator() returns), the trace basis and the p-th roots
of unity each sit in a slot that stays unset until first read; the
subfields sit in a dict keyed by nu.  Recomputing one in a race is
idempotent, so contexts may be shared between threads.  Powers of an
element are listed by doubling (powers), after a short scalar run in
extension fields.  Powers of the generator g go through one method,
generator_powers, which slices a read-only int32 table of g^0, ..., g^(q-2)
(4(q - 1) bytes, in a write-once slot) once it exists.  The table is built
only by a request for at least half the unit group, so that request costs
about twice its own doubling; smaller ones double, so a subgroup of order t
costs O(t) work whatever the field order.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = ["Field", "make_field", "is_prime", "factorize", "divisors", "MAX_ORDER",
           "TABLE_LIMIT"]

MAX_ORDER = 2 ** 31  # keeps every count downstream inside exact 64-bit integer range
TABLE_LIMIT = 1 << 22  # longest q-length int64 array: the dense pair count's q counts
_BLOCK = 1 << 20       # elements per block of an array operation, divided by Field.width
_SCALAR_RUN = 128      # powers listed by scalar mul before doubling starts, m > 1

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


def _index(v):
    """v as a Python int (numpy integers pass), or None for bools and non-integers."""
    if isinstance(v, bool):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def _mod(a, p):
    """a mod p for an int64 array, reduced in place, or a numpy integer.

    numpy divides by a scalar with a multiply and a shift, which is several
    times cheaper than its remainder, so this takes a - (a // p) * p.
    """
    q = a // p
    q *= p
    a -= q
    return a


def _read_only(a):
    a.flags.writeable = False
    return a


class Field:
    """A finite field GF(p^m) whose elements are integer codes in [0, q)."""

    # No instance __dict__: attribute loads stay fast after the lazy tables
    # are built.  The last four are write-once: unset until first read.
    __slots__ = ("p", "m", "q", "modulus", "width", "_red", "_place", "_lane",
                 "_lane_mask", "_low_mask", "_low_bits", "_lane_shifts", "_red_lanes",
                 "_chunk_base", "_chunk_bits", "_spread_table", "_subfields",
                 "_generator", "_tr_basis", "_roots", "_generator_table")

    def __init__(self, p: int, m: int = 1):
        given_p, given_m = p, m
        p, m = _index(p), _index(m)
        if m is None or m < 1:
            raise ValueError(f"extension degree must be a positive integer, got {given_m!r}")
        # before Miller-Rabin and p ** m, which take seconds on a huge p or m
        if p is not None and (p > MAX_ORDER or m > 31 and p > 1):
            raise ValueError("field order exceeds the supported limit 2^31")
        if p is None or not is_prime(p):
            raise ValueError(f"characteristic {given_p!r} is not a prime")
        q = p ** m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported limit 2^31")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = (0, 1) if m == 1 else smallest_irreducible(p, m)
        # row k - m holds the coefficients of t^k mod the modulus, m <= k <= 2m - 2
        self._red = [_poly_mod([0] * k + [1], self.modulus, p) for k in range(m, 2 * m - 1)]
        self._place = [p ** i for i in range(m)]
        if m > 1:
            self._pack_lanes()
        # Scratch charged per element of an array operation's output, in
        # int64 arrays, by which the pair kernel sizes its blocks.  For m > 1
        # vmul keeps m + 2 arrays of the output shape alive (m low rows, one
        # high row, one product) besides the 2m digit arrays of its inputs;
        # the charge 4(2m + 1) is larger because mid-sized arrays come from
        # the heap and stay resident once freed (measured as peak RSS),
        # unlike the one large array of a prime field.
        self.width = 1 if m == 1 else 4 * (2 * m + 1)
        self._subfields = {}  # write-once, keyed by nu

    def _pack_lanes(self):
        # Scalar mul works on ints with one s-bit lane per base-p digit.  A
        # lane of the digit product holds at most m(p - 1)^2 and reduction
        # adds at most (m - 1)(p - 1)^2 more, so lanes never carry into
        # each other.  Codes are spread a chunk of digits at a time through
        # a table of at most 256 ints; above p = 256 one digit at a time.
        p, m = self.p, self.m
        s = ((2 * m - 1) * (p - 1) ** 2).bit_length()
        chunk = 1
        while p ** (chunk + 1) <= 256:
            chunk += 1
        self._lane = s
        self._lane_mask = (1 << s) - 1
        self._low_mask = (1 << m * s) - 1
        self._low_bits = m * s
        self._lane_shifts = tuple(i * s for i in range(m - 1, -1, -1))
        self._red_lanes = tuple(sum(c << i * s for i, c in enumerate(row)) for row in self._red)
        self._chunk_base = p ** chunk
        self._chunk_bits = chunk * s
        self._spread_table = None
        if p <= 256:
            table = [0]  # entry r spreads the chunk-digit number r
            for i in range(chunk):
                table = [t | d << i * s for d in range(p) for t in table]
            self._spread_table = table

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
        if (type(x) is int or isinstance(x, int) and not isinstance(x, bool)) and 0 <= x < self.q:
            return x
        raise ValueError(f"{x!r} is not an element code of {self!r}")

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
        if self.m == 1:
            return (x + y) % self.p
        return self._digit_sum(x, y, 1)

    def sub(self, x, y):
        self.check(x)
        self.check(y)
        if self.m == 1:
            return (x - y) % self.p
        return self._digit_sum(x, y, -1)

    def neg(self, x):
        return self.sub(0, x)

    def _digit_sum(self, x, y, sign):
        """x + sign * y, base-p digit by digit (m > 1)."""
        p = self.p
        out = 0
        mult = 1
        while x or y:
            out += (x % p + sign * (y % p)) % p * mult
            x //= p
            y //= p
            mult *= p
        return out

    def _spread(self, x):
        """x with its base-p digits placed in s-bit lanes, lowest digit lowest."""
        base, step, table = self._chunk_base, self._chunk_bits, self._spread_table
        out = shift = 0
        if table is None:
            while x:
                x, d = divmod(x, base)
                out |= d << shift
                shift += step
        else:
            while x:
                out |= table[x % base] << shift
                x //= base
                shift += step
        return out

    def mul(self, x, y):
        """x * y: one big-int product of the digit lanes, then reduction in place.

        Lane k of the product is the coefficient of t^k.  Each high lane
        k >= m, taken mod p, adds that multiple of t^k mod modulus (packed
        row k - m) into the m low lanes, which are then read off mod p.
        """
        self.check(x)
        self.check(y)
        p = self.p
        if self.m == 1:
            return x * y % p
        if x == 0 or y == 0:
            return 0
        mask, s = self._lane_mask, self._lane
        z = self._spread(x) * self._spread(y)
        low = z & self._low_mask
        high = z >> self._low_bits
        for row in self._red_lanes:
            if not high:
                break
            c = (high & mask) % p
            if c:
                low += c * row
            high >>= s
        code = 0
        for shift in self._lane_shifts:
            code = code * p + (low >> shift & mask) % p
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
        """The m base-p digits of x, lowest first, by m - 1 divisions (new arrays for m > 1)."""
        p = self.p
        digits = []
        for _ in range(self.m - 1):
            quotient = x // p
            digits.append(x - quotient * p)
            x = quotient
        digits.append(x)
        return digits

    def _digitwise(self, x, y, op):
        p = self.p
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if self.m == 1:
            return _mod(op(x, y), p)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
        for w, dx, dy in zip(self._place, self._digits(x), self._digits(y)):
            d = _mod(op(dx, dy), p)
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
        """Elementwise x * y over code arrays: digits, digit product, codes."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        return self._pack(self._digit_product(self._digits(x), self._digits(y)))

    def _digit_product(self, dx, dy):
        """The m digit rows (each < p, lowest first) of x * y, from those of x and y.

        Coefficient k of the product polynomial is the sum of dx[i] * dy[k - i].
        The m low ones (k < m) are kept; each high one (k >= m) is built
        alone and folded, unreduced, into the low ones through t^k mod
        modulus (an entry p - 1 is a subtraction, an entry 1 an addition),
        and the low ones are reduced mod p once at the end.  Given the same
        list twice (dx is dy) it squares: each cross term dx[i] * dx[j],
        i < j, is formed once and doubled, so a square costs m(m + 1)/2
        digit products instead of m^2.  A high coefficient is at most
        (m - 1)(p - 1)^2, so a low one stays below
        m(p - 1)^2 + (m - 1)^2 (p - 1)^3 < 2^47 in absolute value for every
        q <= 2^31 with m > 1, and below 2^62 for m = 1: int64 holds every
        value exactly.  The rows are new arrays; m = 1 is the same loop
        with the codes as the one digit.
        """
        p, m = self.p, self.m
        square = dx is dy

        def coefficient(k):
            lo = max(0, k - m + 1)
            if not square:
                c = dx[lo] * dy[k - lo]
                for i in range(lo + 1, min(k, m - 1) + 1):
                    c += dx[i] * dy[k - i]
                return c
            half = (k + 1) // 2  # the cross terms i < k - i
            if half == lo:  # k = 0 or 2m - 2: one square term alone
                return dx[lo] * dx[lo]
            c = dx[lo] * dx[k - lo]
            for i in range(lo + 1, half):
                c += dx[i] * dx[k - i]
            c += c
            if k % 2 == 0:
                c += dx[half] * dx[half]
            return c

        low = [coefficient(k) for k in range(m)]
        for k in range(2 * m - 2, m - 1, -1):
            high = coefficient(k)
            for i, r in enumerate(self._red[k - m]):
                if r == 1:
                    low[i] += high
                elif r == p - 1:
                    low[i] -= high
                elif r:
                    low[i] += high * r
        for i in range(m):
            low[i] = _mod(low[i], p)
        return low

    def _pack(self, rows):
        """The codes whose base-p digits, lowest first, are rows, built in rows[-1]."""
        out = rows[-1]
        for d in rows[-2::-1]:
            out *= self.p
            out += d
        return out

    def trace_form(self, a=1):
        """(Tr(a * t^i))_{i<m} as codes < p: m scalar products and traces, or (a,) for m = 1."""
        self.check(a)
        if self.m == 1:
            return (a,)
        return tuple(self.trace(self.mul(a, w)) for w in self._place)

    def vtrace(self, x, a=1, form=None):
        """Elementwise Tr(a * x) down to the prime field, as codes < p.

        Tr is linear over the prime field (Lidl-Niederreiter, Finite Fields,
        Thm 2.23), so Tr(a * x) = sum_i x_i * Tr(a * t^i) over the digits x_i
        of x; form is trace_form(a), passed in to read several arrays against
        one form.  x // p^i is x_i plus a multiple of p, so each term is one
        division and one product, and one quotient and the sum (< p * q) are
        alive at a time, whatever m.  The ufuncs cast x to int64 as they
        read it, so an int32 input (gauss's power tables) is not copied.
        """
        if form is None:
            form = self.trace_form(a)
        out = np.multiply(x, form[0], dtype=np.int64)
        for c, w in zip(form[1:], self._place[1:]):
            if c:
                quotient = np.floor_divide(x, w, dtype=np.int64)
                quotient *= c
                out += quotient
                del quotient  # freed before the next one is made
        return _mod(out, self.p)

    def powers(self, h, count):
        """h^0, ..., h^(count-1) as an int64 array, by doubling.

        out[k:2k] = out[:k] * h^k, taken in blocks of about _BLOCK / width
        elements, so a table of n powers costs log2(n) array steps.  For
        m > 1 the first _SCALAR_RUN powers come from scalar mul, which beats
        an array step of m^2 digit products on short runs.
        """
        self.check(h)
        out = np.empty(count, dtype=np.int64)
        out[:1] = 1
        k, hk = 1, h
        if self.m > 1:
            while k < min(count, _SCALAR_RUN):
                out[k] = hk
                hk = self.mul(hk, h)
                k += 1
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

    def _trace_basis(self):
        """Tr(t^i) for i < m, built once through scalar Frobenius powers."""
        try:
            return self._tr_basis
        except AttributeError:
            pass
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
        self._tr_basis = tuple(tb)
        return self._tr_basis

    def trace(self, x):
        """Trace down to the prime field: x + x^p + ... + x^(p^(m-1)), as a code < p.

        Computed through the trace of the power basis (the map is linear over
        the prime field), so table builds stay cheap.
        """
        self.check(x)
        if self.m == 1:
            return x
        tb = self._trace_basis()
        p = self.p
        total = 0
        i = 0
        while x:
            total += (x % p) * tb[i]
            x //= p
            i += 1
        return total % p

    @property
    def roots(self):
        """Read-only complex array of exp(2*pi*i * k / p) for k < p (cached).

        Raises ValueError for p > TABLE_LIMIT, where the table would not fit.
        """
        try:
            return self._roots
        except AttributeError:
            pass
        if self.p > TABLE_LIMIT:
            raise ValueError(f"p = {self.p} exceeds TABLE_LIMIT = {TABLE_LIMIT}: no table of p roots")
        ang = 2.0 * np.pi * np.arange(self.p) / self.p
        self._roots = _read_only(np.cos(ang) + 1j * np.sin(ang))
        return self._roots

    def additive_char(self, a, x) -> complex:
        """exp(2*pi*i * Tr(a*x) / p), a unit-modulus complex number.

        Computed on its own rather than read from roots, so that checks
        comparing it with the array character sums test that table too.
        """
        angle = 2.0 * math.pi / self.p * self.trace(self.mul(a, x))
        return complex(math.cos(angle), math.sin(angle))

    def generator(self):
        """Smallest-code element of multiplicative order q - 1 (cached)."""
        # a plain method: perfbench's tracer times it as a span by wrapping
        # the function in the class __dict__
        try:
            return self._generator
        except AttributeError:
            pass
        n = self.q - 1
        checks = [n // ell for ell, _ in factorize(n)] if n > 1 else []
        for cand in range(1, self.q):
            if all(self.pow(cand, e) != 1 for e in checks):
                self._generator = cand
                return cand
        raise RuntimeError("no generator found")  # pragma: no cover - the group is cyclic

    def generator_powers(self, count, step=1):
        """g^0, g^step, ..., g^((count-1)*step) as an int64 array, g = generator().

        The exponents must stay below q - 1.  The unit group is cyclic
        (Lidl-Niederreiter, Finite Fields, Thm 2.8), so every such list is a
        strided slice of g^0, ..., g^(q-2).  Once the field holds that table
        (read-only int32, 4(q - 1) bytes) the list is copied from it.  A
        request for at least half the unit group (2 * count >= q - 1) builds
        the table first, at about twice the cost of its own doubling, so the
        table's bytes stay within 8 * count; any other request doubles from
        g^step (powers).  So a subgroup of order 3 in GF(2^22) never lists
        all q - 1 powers.
        """
        n = self.q - 1
        if count < 0 or step < 1 or (count - 1) * step >= n:
            raise ValueError(f"exponents 0, {step}, ..., {(count - 1) * step} "
                             f"do not stay below q - 1 = {n}")
        try:
            table = self._generator_table
        except AttributeError:
            if 2 * count < n:
                return self.powers(self.pow(self.generator(), step), count)
            table = _read_only(self.powers(self.generator(), n).astype(np.int32))
            self._generator_table = table
        return table[:count * step:step].astype(np.int64)

    def unit_subgroup(self, t):
        """(codes, h): the order-t subgroup of the unit group and its generator.

        h = g^((q-1)/t) is a Python int and codes is the int64 array
        h^0, ..., h^(t-1) from generator_powers, checked to close (h^t = 1);
        t must divide q - 1.  h is read off that array, codes[1] (codes[0]
        = 1 when t = 1), so a wrong h or h^(t-1) in the generator-power
        table fails the check.
        """
        n, k = self.q - 1, _index(t)
        if k is None or k < 1 or n % k != 0:
            raise ValueError(f"{t} does not divide q - 1 = {n}")
        codes = self.generator_powers(k, n // k)
        h = int(codes[1 % k])
        if self.mul(int(codes[-1]), h) != 1:
            raise RuntimeError("subgroup enumeration did not close")
        return codes, h

    def subfield(self, nu):
        """The subfield of order p^nu as an ESet; nu must divide m.

        These are exactly the fixed points of x -> x^(p^nu): {0} together
        with the multiplicative subgroup of order p^nu - 1.
        """
        k = _index(nu)
        if k is None or k < 1 or self.m % k != 0:
            raise ValueError(f"{nu!r} does not divide the extension degree {self.m}")
        cached = self._subfields.get(k)
        if cached is None:
            from .sets import ESet

            codes, _ = self.unit_subgroup(self.p ** k - 1)
            cached = ESet(self, np.concatenate(([0], codes)))
            self._subfields[k] = cached
        return cached


def make_field(p: int, m: int = 1) -> Field:
    """Shared field context for GF(p^m); repeated calls return the same object.

    numpy integers name the same context as the equal Python ints.
    """
    p_int, m_int = _index(p), _index(m)
    if p_int is None or m_int is None:
        return Field(p, m)  # raises the constructor's error
    return _shared_field(p_int, m_int)


@functools.lru_cache(maxsize=None)
def _shared_field(p, m):
    return Field(p, m)
