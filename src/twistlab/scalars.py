"""Exact scalar arithmetic: cyclotomic fields Q(zeta_N) and prime fields F_p.

Cyclotomic numbers are stored in the power basis 1, z, ..., z^(phi(N)-1) of
Q(zeta_N) with integer numerators over a common positive denominator, reduced
mod the N-th cyclotomic polynomial.  Conductors are normalized to never be
congruent to 2 mod 4 (Q(zeta_2m) = Q(zeta_m) for odd m).  Binary operations on
scalars with different conductors promote both sides to the lcm conductor.

Prime-field scalars are residues mod p together with a designated root of
unity of exact multiplicative order N (N | p-1) fixed by the field handle, so
the same constructions can be replayed in characteristic p.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


class ScalarError(ValueError):
    pass


# ---------------------------------------------------------------------------
# small number theory helpers

def factorize(n):
    """Prime factorization as a dict p -> multiplicity (trial division)."""
    if n <= 0:
        raise ScalarError("factorize expects a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def mobius(n):
    mu = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        mu = -mu
    return mu


def divisors(n):
    ds = [1]
    for p, k in factorize(n).items():
        ds = [d * p ** i for d in ds for i in range(k + 1)]
    return sorted(ds)


def is_prime(n):
    if n < 2:
        return False
    return factorize(n) == {n: 1}


def iroot(n, k):
    """Largest r with r**k <= n, for n >= 0, via integer Newton iteration."""
    if n < 0:
        raise ScalarError("iroot expects a nonnegative integer")
    if n == 0:
        return 0
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def exact_root(n, k):
    """Return the integer k-th root of n, or None if n is not a perfect power."""
    neg = n < 0
    if neg and k % 2 == 0:
        return None
    r = iroot(-n if neg else n, k)
    if r ** k != (-n if neg else n):
        return None
    return -r if neg else r


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-conductor reduction tables

_cyclo_cache = {1: (-1, 1)}


def cyclotomic_poly(n):
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    # divide x^n - 1 by the product of Phi_d over proper divisors d of n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n):
        if d == n:
            continue
        phi_d = cyclotomic_poly(d)
        num = _poly_div_exact(num, phi_d)
    out = tuple(num)
    _cyclo_cache[n] = out
    return out


def _poly_div_exact(num, den):
    """Exact division of integer polynomials (raises if not exact)."""
    num = list(num)
    dd = len(den) - 1
    while dd >= 0 and den[dd] == 0:
        dd -= 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if c % den[dd] != 0:
            raise ScalarError("non-exact polynomial division")
        f = c // den[dd]
        q[i - dd] = f
        for j in range(dd + 1):
            num[i - dd + j] -= f * den[j]
    if any(num):
        raise ScalarError("non-exact polynomial division")
    return q


class _CycContext:
    """Cached reduction data for one conductor."""

    __slots__ = ("n", "phi", "minpoly", "rows", "trace")

    def __init__(self, n):
        self.n = n
        self.phi = euler_phi(n)
        self.minpoly = cyclotomic_poly(n)
        # rows[j] = coefficients of z^j reduced mod Phi_n, as an int tuple
        top = max(n + 1, 2 * self.phi)
        rows = []
        for j in range(self.phi):
            row = [0] * self.phi
            row[j] = 1
            rows.append(tuple(row))
        for j in range(self.phi, top):
            prev = rows[j - 1]
            shifted = [0] + list(prev[: self.phi - 1])
            lead = prev[self.phi - 1]
            if lead:
                for i in range(self.phi):
                    shifted[i] -= lead * self.minpoly[i]
            rows.append(tuple(shifted))
        self.rows = rows
        # trace[j] = Tr(z^j) / phi(n), a conductor-independent invariant
        tr = []
        for j in range(self.phi):
            m = n // gcd(n, j)
            tr.append(Fraction(mobius(m), euler_phi(m)))
        self.trace = tuple(tr)


_ctx_cache = {}

# Largest conductor a scalar may have.  A context holds about n * phi(n)
# integers (0.27 s and 76 MB at n = 2003), so a document naming a huge
# conductor is refused here instead of exhausting memory.  Every field the
# finder and the catalog build has a conductor far below this.
MAX_CONDUCTOR = 1024


def _ctx(n):
    ctx = _ctx_cache.get(n)
    if ctx is None:
        if not 1 <= n <= MAX_CONDUCTOR:
            raise ScalarError(
                f"conductor {n} is outside 1..{MAX_CONDUCTOR}")
        ctx = _CycContext(n)
        _ctx_cache[n] = ctx
    return ctx


def _normalize_conductor(n, k):
    """Reduce zeta_n^k to a canonical conductor (never 2 mod 4)."""
    k %= n
    g = gcd(n, k)
    if k:
        n, k = n // g, k // g
    else:
        n = 1
    if n % 4 == 2:
        m = n // 2
        # zeta_2m = -zeta_m^((m+1)/2) for odd m
        sign = -1 if k % 2 else 1
        k = (k * ((m + 1) // 2)) % m
        return m, k, sign
    return n, k, 1


# ---------------------------------------------------------------------------
# cyclotomic scalar

class Cyc:
    """An element of Q(zeta_n): integer numerator vector over a denominator."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n, num, den=1):
        # assumes num already has length phi(n) and is reduced mod Phi_n
        if den == 0:
            raise ScalarError("zero denominator")
        if den < 0:
            den = -den
            num = tuple(-c for c in num)
        g = den
        for c in num:
            if c:
                g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.n = n
        self.num = tuple(num)
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(v, n=1):
        ctx = _ctx(n)
        num = [0] * ctx.phi
        num[0] = v
        return Cyc(n, num)

    @staticmethod
    def from_fraction(fr, n=1):
        fr = Fraction(fr)
        ctx = _ctx(n)
        num = [0] * ctx.phi
        num[0] = fr.numerator
        return Cyc(n, num, fr.denominator)

    @staticmethod
    def root_of_unity(n, k=1):
        n, k, sign = _normalize_conductor(n, k)
        ctx = _ctx(n)
        row = ctx.rows[k]
        if sign < 0:
            row = tuple(-c for c in row)
        return Cyc(n, row)

    # -- conductor handling --------------------------------------------------

    def promote(self, m):
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise ScalarError(f"cannot promote conductor {self.n} to {m}")
        step = m // self.n
        ctx = _ctx(m)
        out = [0] * ctx.phi
        for j, c in enumerate(self.num):
            if c:
                row = ctx.rows[j * step]
                for i in range(ctx.phi):
                    out[i] += c * row[i]
        return Cyc(m, out, self.den)

    def _pair(self, other):
        # Cyc is tested first: isinstance against Fraction goes through
        # ABCMeta and is slow
        if not isinstance(other, Cyc):
            if isinstance(other, int):
                other = Cyc.from_int(other)
            elif isinstance(other, Fraction):
                other = Cyc.from_fraction(other)
            else:
                return None, None
        if self.n == other.n:
            return self, other
        m = lcm(self.n, other.n)
        return self.promote(m), other.promote(m)

    def galois(self, c):
        """Image under the automorphism zeta -> zeta^c; gcd(c, n) must be 1."""
        c %= self.n
        if gcd(c, self.n) != 1:
            raise ScalarError(f"{c} is not a unit modulo {self.n}")
        ctx = _ctx(self.n)
        out = [0] * ctx.phi
        for j, coeff in enumerate(self.num):
            if coeff:
                row = ctx.rows[(j * c) % self.n]
                for i in range(ctx.phi):
                    out[i] += coeff * row[i]
        return Cyc(self.n, out, self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return Cyc(a.n, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        num = tuple(x * b.den - y * a.den for x, y in zip(a.num, b.num))
        return Cyc(a.n, num, a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        ctx = _ctx(a.n)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        out = conv[:phi]
        rows = ctx.rows
        for j in range(phi, 2 * phi - 1):
            c = conv[j]
            if c:
                row = rows[j]
                for i in range(phi):
                    out[i] += c * row[i]
        return Cyc(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm N(x) = x * prod_{c != 1} sigma_c(x), a nonzero
        rational for nonzero x."""
        if not any(self.num):
            raise ZeroDivisionError("inverting zero scalar")
        if len(self.num) == 1:
            return Cyc(self.n, (self.den,), self.num[0])
        rest = Cyc.from_int(1, self.n)
        for c in range(2, self.n):
            if gcd(c, self.n) == 1:
                rest = rest * self.galois(c)
        norm = self * rest
        return Cyc(self.n, tuple(c * norm.den for c in rest.num),
                   rest.den * norm.num[0])

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.from_int(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and hashing ----------------------------------------------

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # normalized trace is independent of the representing conductor
        ctx = _ctx(self.n)
        t = Fraction(0)
        for j, c in enumerate(self.num):
            if c:
                t += c * ctx.trace[j]
        return hash(t / self.den)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ScalarError("scalar is not rational")
        return Fraction(self.num[0], self.den)

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        terms = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if not c:
                continue
            if self.den == 1:
                cs = str(c)
            else:
                cs = f"({c}/{self.den})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*z")
            else:
                terms.append(f"{cs}*z^{k}")
        poly = " + ".join(terms) if terms else "0"
        return f"Q(z_{self.n}) {poly}"

    def __repr__(self):
        return f"Cyc({self!s})"


# ---------------------------------------------------------------------------
# prime field scalar

class Fp:
    """Residue mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ScalarError("mixed prime moduli")
            return other
        if isinstance(other, int):
            return Fp(self.p, other)
        if isinstance(other, Fraction):
            return Fp(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return Fp(self.p, -self.v)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.v - o.v)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp(self.p, self.v * o.v)

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("inverting zero scalar")
        return Fp(self.p, pow(self.v, self.p - 2, self.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Fp(self.p, pow(self.v, k, self.p))

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.v == o.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __str__(self):
        return f"{self.v} mod {self.p}"

    def __repr__(self):
        return f"Fp({self.v} mod {self.p})"


# ---------------------------------------------------------------------------
# reduction of cyclotomic scalars mod p

def root_powers(z, n, p):
    """z^0, ..., z^(phi(n)-1) mod p: the images of the power basis of
    Q(zeta_n) under zeta_n -> z."""
    out = [1]
    for _ in range(1, _ctx(n).phi):
        out.append(out[-1] * z % p)
    return tuple(out)


def cyc_residue(c, p, powers):
    """The image of c in F_p as an int, where powers = root_powers(z, c.n, p)
    for a primitive c.n-th root of unity z mod p; None if p divides the
    denominator.

    z is a root of Phi_n mod p, so zeta_n -> z is a ring map
    Z[1/den][zeta_n] -> F_p: images of sums and products are the sums and
    products of the images."""
    den = c.den
    if den % p == 0:
        return None
    acc = 0
    for coeff, w in zip(c.num, powers):
        if coeff:
            acc += coeff * w
    if den != 1:
        acc *= pow(den, -1, p)
    return acc % p


# ---------------------------------------------------------------------------
# field handles

@dataclass(frozen=True)
class FieldSpec:
    """Declaration of the scalar domain for a computation."""

    kind: str                    # "cyclotomic" or "prime"
    modulus: int = 0             # prime: p
    root_order: int = 0          # prime: order N of the designated root


class CyclotomicField:
    """Handle for Q(zeta_N) scalars with on-demand conductor growth."""

    kind = "cyclotomic"
    characteristic = 0

    def zero(self):
        return Cyc.from_int(0)

    def one(self):
        return Cyc.from_int(1)

    def from_int(self, v):
        return Cyc.from_int(v)

    def from_fraction(self, fr):
        return Cyc.from_fraction(fr)

    def primitive_root(self, m):
        """A primitive m-th root of unity; conductor promotes as needed."""
        if m < 1:
            raise ScalarError("root order must be positive")
        return Cyc.root_of_unity(m)

    def parse(self, text):
        return parse_scalar(text)

    def spec(self):
        return FieldSpec(kind="cyclotomic")

    def __repr__(self):
        return "CyclotomicField()"


class PrimeField:
    """Handle for F_p with a designated N-th root of unity (N | p-1)."""

    kind = "prime"

    def __init__(self, p, root_order=0):
        if not is_prime(p):
            raise ScalarError(f"{p} is not prime")
        n = root_order or p - 1
        if (p - 1) % n:
            raise ScalarError(f"root order {n} does not divide p-1 = {p - 1}")
        self.p = p
        self.root_order = n
        self.characteristic = p
        self.root = self._designated_root()

    def _designated_root(self):
        """Smallest residue with multiplicative order exactly root_order."""
        n = self.root_order
        if n == 1:
            return 1
        prime_parts = list(factorize(n))
        for g in range(2, self.p):
            if pow(g, n, self.p) != 1:
                continue
            if all(pow(g, n // q, self.p) != 1 for q in prime_parts):
                return g
        raise ScalarError("no root of requested order found")

    def zero(self):
        return Fp(self.p, 0)

    def one(self):
        return Fp(self.p, 1)

    def from_int(self, v):
        return Fp(self.p, v)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if fr.denominator % self.p == 0:
            raise ScalarError(f"denominator {fr.denominator} vanishes mod {self.p}")
        return Fp(self.p, fr.numerator * pow(fr.denominator, -1, self.p))

    def primitive_root(self, m):
        if m < 1:
            raise ScalarError("root order must be positive")
        if self.root_order % m:
            raise ScalarError(
                f"no {m}-th root available: {m} does not divide root order {self.root_order}")
        return Fp(self.p, pow(self.root, self.root_order // m, self.p))

    def from_cyc(self, c):
        """Transport a cyclotomic scalar along zeta_N -> designated root."""
        if not isinstance(c, Cyc):
            raise ScalarError("from_cyc expects a cyclotomic scalar")
        if self.root_order % c.n:
            raise ScalarError(
                f"conductor {c.n} does not divide root order {self.root_order}")
        z = pow(self.root, self.root_order // c.n, self.p)
        v = cyc_residue(c, self.p, root_powers(z, c.n, self.p))
        if v is None:
            raise ScalarError(f"denominator {c.den} vanishes mod {self.p}")
        return Fp(self.p, v)

    def parse(self, text):
        return parse_scalar(text)

    def spec(self):
        return FieldSpec(kind="prime", modulus=self.p, root_order=self.root_order)

    def __repr__(self):
        return f"PrimeField(p={self.p}, root_order={self.root_order}, root={self.root})"


def make_field(spec):
    if spec.kind == "cyclotomic":
        return CyclotomicField()
    if spec.kind == "prime":
        return PrimeField(spec.modulus, spec.root_order)
    raise ScalarError(f"unknown field kind {spec.kind!r}")


def parse_field_spec(text):
    """Parse CLI field descriptions: 'cyclotomic', 'fp:P', 'fp:P:N'."""
    parts = text.split(":")
    if parts == ["cyclotomic"]:
        return FieldSpec(kind="cyclotomic")
    if parts[0] == "fp" and len(parts) in (2, 3):
        try:
            p = int(parts[1])
            n = int(parts[2]) if len(parts) > 2 else p - 1
        except ValueError:
            raise ScalarError(f"fp field spec needs integers, found {text!r}")
        return FieldSpec(kind="prime", modulus=p, root_order=n)
    raise ScalarError(f"cannot parse field spec {text!r}")


# ---------------------------------------------------------------------------
# scalar serialization (round-trips with __str__)

def write_scalar(s):
    return str(s)


def parse_scalar(text):
    """Inverse of write_scalar.  Raises ScalarError on a zero denominator
    or modulus, an exponent outside 0..phi(n)-1 and a repeated exponent."""
    text = text.strip()
    if " mod " in text:
        v, p = text.split(" mod ")
        p = int(p)
        if p < 2:
            raise ScalarError(f"modulus must be at least 2, found {p}")
        return Fp(p, int(v))
    if not text.startswith("Q(z_"):
        raise ScalarError(f"cannot parse scalar {text!r}")
    close = text.index(")")
    n = int(text[4:close])
    body = text[close + 1:].strip()
    ctx = _ctx(n)
    num = [Fraction(0)] * ctx.phi
    seen = set()
    if body != "0":
        for term in body.split(" + "):
            term = term.strip()
            if "*z" in term:
                cs, zs = term.split("*z", 1)
                k = int(zs[1:]) if zs.startswith("^") else 1
            else:
                cs, k = term, 0
            if not 0 <= k < ctx.phi:
                raise ScalarError(f"exponent {k} is outside 0..{ctx.phi - 1} "
                                  f"in Q(z_{n})")
            if k in seen:
                raise ScalarError(f"exponent {k} appears twice")
            seen.add(k)
            cs = cs.strip()
            if cs.startswith("(") and cs.endswith(")"):
                cs = cs[1:-1]
            try:
                num[k] = Fraction(cs)
            except ZeroDivisionError:
                raise ScalarError(f"zero denominator in {cs!r}")
    den = 1
    for c in num:
        den = lcm(den, c.denominator)
    return Cyc(n, tuple(int(c * den) for c in num), den)
