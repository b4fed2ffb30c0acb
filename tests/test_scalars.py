from __future__ import annotations

import random
from fractions import Fraction

import pytest

from twistlab.scalars import (
    MAX_MODULUS, Cyc, FieldSpec, Fp, PrimeField, ScalarError,
    cyclotomic_poly, divisors, euler_phi, exact_root, factorize, iroot,
    is_prime, make_field, mobius, parse_field_spec, parse_scalar,
    write_scalar,
)


# hand-checked cyclotomic polynomials, low-to-high coefficients
KNOWN_CYCLO = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for n, coeffs in KNOWN_CYCLO.items():
        assert cyclotomic_poly(n) == coeffs


def test_phi_and_mobius():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]
    assert [mobius(n) for n in (1, 2, 3, 4, 6, 12, 30)] == [1, -1, -1, 0, 1, 0, -1]


def test_iroot():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert exact_root(27, 3) == 3
    assert exact_root(-27, 3) == -3
    assert exact_root(28, 3) is None
    assert exact_root(-4, 2) is None


def _random_cyc(rng, n):
    phi = euler_phi(n)
    num = [rng.randint(-6, 6) for _ in range(phi)]
    den = rng.randint(1, 9)
    return Cyc(n, tuple(num), den)


def test_field_axioms_randomized():
    rng = random.Random(7)
    one = Cyc.from_int(1)
    for _ in range(150):
        n = rng.choice([1, 3, 4, 5, 8, 12])
        a, b, c = (_random_cyc(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Cyc.from_int(0)
        if a:
            assert a * a.inverse() == one


def test_inverse_at_larger_conductors():
    rng = random.Random(11)
    one = Cyc.from_int(1)
    for n in (16, 24, 120):
        for _ in range(5):
            a = _random_cyc(rng, n)
            if a:
                assert a * a.inverse() == one
    # dense: every one of the 128 coefficients is nonzero
    a = Cyc(256, tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(128)),
            7)
    assert a * a.inverse() == one


def test_roots_of_unity():
    i = Cyc.root_of_unity(4)
    assert i * i == Cyc.from_int(-1)
    assert i ** 4 == Cyc.from_int(1)
    w = Cyc.root_of_unity(3)
    assert w ** 3 == Cyc.from_int(1)
    assert w * w + w + 1 == Cyc.from_int(0)
    # conductor 6 folds into conductor 3 (never 2 mod 4)
    z6 = Cyc.root_of_unity(6)
    assert z6.n == 3
    assert z6 ** 6 == Cyc.from_int(1)
    assert z6 ** 3 == Cyc.from_int(-1)
    assert z6 ** 2 == w
    assert Cyc.root_of_unity(2) == Cyc.from_int(-1)
    # all powers of z8 are distinct
    z8 = Cyc.root_of_unity(8)
    powers = [z8 ** k for k in range(8)]
    for a in range(8):
        for b in range(a + 1, 8):
            assert powers[a] != powers[b]


def test_cross_conductor_arithmetic():
    w = Cyc.root_of_unity(3)
    i = Cyc.root_of_unity(4)
    s = w + i
    assert s.n == 12
    assert s - i == w
    assert (w * i) ** 12 == Cyc.from_int(1)
    # equal values in different conductors compare and hash equal
    w_in_12 = w.promote(12)
    assert w == w_in_12
    assert hash(w) == hash(w_in_12)


def test_inverse_known_value():
    # (1 + i)^(-1) = (1 - i)/2
    i = Cyc.root_of_unity(4)
    x = Cyc.from_int(1) + i
    assert x.inverse() == (Cyc.from_int(1) - i) * Fraction(1, 2)


def test_serialization_roundtrip():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.choice([1, 3, 4, 8, 12])
        a = _random_cyc(rng, n)
        assert parse_scalar(write_scalar(a)) == a
    s = Cyc(8, (1, 0, -1, 0), 2)
    assert write_scalar(s) == "Q(z_8) (-1/2)*z^2 + (1/2)"
    assert write_scalar(Cyc.from_int(0)) == "Q(z_1) 0"
    assert parse_scalar("Q(z_4) 2*z + -3") == Cyc(4, (-3, 2), 1)
    top = parse_scalar("Q(z_1024) 1*z^511")        # the largest conductor
    assert top * top == Cyc.root_of_unity(1024, 1022)


@pytest.mark.parametrize("text", [
    "Q(z_1) (1/0)",          # zero denominator
    "5 mod 0",               # zero modulus
    "Q(z_4) 1*z^7",          # exponent past phi(4) - 1
    "Q(z_4) 1*z^-1",         # negative exponent
    "Q(z_4) 1*z + 2*z",      # repeated exponent
    "Q(z_1025) 1",           # conductor above MAX_CONDUCTOR = 1024
    "Q(z_2003) 1",
])
def test_parse_scalar_rejects_hostile_input(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)


def test_prime_field_designated_root():
    # order of every residue mod 5: 1->1, 2->4, 3->4, 4->2; smallest of order 4 is 2
    f = PrimeField(5, 4)
    assert f.root == 2
    assert f.primitive_root(4) == Fp(5, 2)
    assert f.primitive_root(2) == Fp(5, 4)
    with pytest.raises(ScalarError):
        f.primitive_root(3)
    # 2 is a primitive root mod 13 (order 12, checked by brute force)
    orders = {g: min(k for k in range(1, 13) if pow(g, k, 13) == 1) for g in range(2, 13)}
    assert min(g for g, o in orders.items() if o == 12) == 2
    f13 = PrimeField(13, 12)
    assert f13.root == 2


def _scanned_root(p, n):
    """The least residue of multiplicative order exactly n, by a walk over
    2, 3, ...: the reference for PrimeField._designated_root."""
    if n == 1:
        return 1
    for g in range(2, p):
        if pow(g, n, p) == 1 and all(pow(g, n // q, p) != 1
                                     for q in factorize(n)):
            return g


def test_designated_root_matches_the_residue_walk():
    for p in range(2, 400):
        if is_prime(p):
            for n in divisors(p - 1):
                assert PrimeField(p, n).root == _scanned_root(p, n), (p, n)
    # the walk would pass about 2^31 residues to reach these roots
    p = 2 ** 31 - 1
    assert PrimeField(p, 2).root == p - 1
    w = PrimeField(p, 3).root
    assert pow(w, 3, p) == 1 != w and w < pow(w, 2, p)


def test_prime_field_refuses_bad_root_orders_and_huge_moduli():
    for order in (0, -4):
        with pytest.raises(ScalarError, match="not a positive divisor"):
            PrimeField(13, order)
    # refused before any trial division
    with pytest.raises(ScalarError, match=f"not a prime up to {MAX_MODULUS}"):
        PrimeField(100000000000000003)
    assert PrimeField(2 ** 31 - 1).root == 7


def test_prime_field_arithmetic():
    f = PrimeField(13, 12)
    a, b = f.from_int(7), f.from_int(11)
    assert a + b == f.from_int(5)
    assert a * b == f.from_int(12)
    assert a * a.inverse() == f.one()
    assert f.from_fraction(Fraction(1, 2)) * f.from_int(2) == f.one()
    assert parse_scalar(write_scalar(a)) == a


def test_cyc_to_fp_transport():
    f = PrimeField(13, 12)
    i = Cyc.root_of_unity(4)
    im = f.from_cyc(i)
    assert im * im == f.from_int(-1)
    # transport is a ring homomorphism on a sample
    rng = random.Random(3)
    for _ in range(40):
        a = _random_cyc(rng, 12)
        b = _random_cyc(rng, 12)
        assert f.from_cyc(a * b) == f.from_cyc(a) * f.from_cyc(b)
        assert f.from_cyc(a + b) == f.from_cyc(a) + f.from_cyc(b)


def test_make_field_and_cli_specs():
    f = make_field(parse_field_spec("cyclotomic"))
    assert f.kind == "cyclotomic" and f.spec() == FieldSpec(kind="cyclotomic")
    g = make_field(parse_field_spec("fp:13"))
    assert g.p == 13 and g.root_order == 12
    h = make_field(parse_field_spec("fp:13:4"))
    assert h.root_order == 4 and pow(h.root, 4, 13) == 1 and pow(h.root, 2, 13) != 1
    for text in ("cyclotomic:12", "fp", "fp:x", "fp:13:4:2"):
        with pytest.raises(ScalarError):
            parse_field_spec(text)
    with pytest.raises(ScalarError):
        make_field(FieldSpec(kind="prime", modulus=12, root_order=1))
    with pytest.raises(ScalarError):
        make_field(FieldSpec(kind="prime", modulus=13, root_order=5))
