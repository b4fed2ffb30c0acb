import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from twistlab.scalars import Cyc, CyclotomicField, PrimeField
from twistlab.groups import make_cyclic, abelian_group, symmetric
from twistlab.algebra import (
    AbelianCharacters, TensorElement, AlgebraError, algebra_invert,
    hopf_coproduct,
)
from twistlab.twists import verify_twist, identity_twist, gauge_transform
from twistlab.movshev import (
    MovshevError, build_BJ, dual_movshev, certify_simple,
    regular_character_report, certify_regular_action, count_grouplikes,
    rational_sqrt_cyclotomic, kth_root_scalar, trivialize_symmetric_twist,
    match_projective_rep, derive_equivariant_iso, equivariant_iso_report,
    gauge_movshev_images, movshev_iso_report,
)

Q = CyclotomicField()
HALF = Q.from_fraction(Fraction(1, 2))


def klein_twist():
    """J = (1/2)(1 (x) 1 + 1 (x) g + b (x) 1 - b (x) g) on Z/2 x Z/2."""
    H = abelian_group((2, 2))
    J = TensorElement(H, 2, Q, {
        (0, 0): HALF, (0, 1): HALF, (2, 0): HALF, (2, 1): -HALF})
    return H, J


def rand_invertible(rng, group, field=Q):
    while True:
        coeffs = {}
        for _ in range(3):
            coeffs[(rng.randrange(group.order),)] = field.from_fraction(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        x = TensorElement(group, 1, field, coeffs)
        if not x:
            continue
        try:
            algebra_invert(x)
            return x
        except AlgebraError:
            continue


def pauli_rep():
    """The four 2x2 matrices I, X, Z, ZX indexed like Z/2 x Z/2 = (b, g)."""
    one, zero = Q.one(), Q.zero()
    X = [[zero, one], [one, zero]]
    Z = [[one, zero], [zero, -one]]
    ZX = [[zero, one], [-one, zero]]
    I = [[one, zero], [zero, one]]
    return SimpleNamespace(dim=2, matrices=[I, X, Z, ZX])


def test_dual_of_identity_twist_is_function_algebra():
    G = make_cyclic(3)
    t = identity_twist(G, Q)
    M = dual_movshev(t, validate=True)
    assert M.dim == 3
    one = Q.one()
    for a in range(3):
        for b in range(3):
            want = {a: one} if a == b else {}
            assert M.algebra.m[a][b] == want
    assert M.algebra.is_commutative()
    # the dual of a function algebra is nothing like a matrix algebra
    assert not certify_simple(M).ok
    # but the translation action is still the regular one
    assert certify_regular_action(M).ok


def test_klein_dual_matches_closed_form():
    H, J = klein_twist()
    t = verify_twist(J)
    M = dual_movshev(t, validate=True)
    # frozen spot value: Y_b Y_g = -(1/2) Y_e
    assert M.algebra.m[2][1] == {0: -HALF}
    # full table: Y_(b2,g2) Y_(b1,g1) = 1/2 (-1)^((g1+g2)(b1+b2)) Y_(b1,g2)
    for b2 in range(2):
        for g2 in range(2):
            for b1 in range(2):
                for g1 in range(2):
                    a = H.index_of((b2, g2))
                    b = H.index_of((b1, g1))
                    tgt = H.index_of((b1, g2))
                    sign = (-1) ** ((g1 + g2) * (b1 + b2))
                    assert M.algebra.m[a][b] == {tgt: HALF * sign}
    assert M.algebra.unit == {x: Q.one() for x in range(4)}


def test_build_bj_row_at_identity_is_J():
    H, J = klein_twist()
    t = verify_twist(J)
    rows, counit = build_BJ(t)
    assert rows[0] == J
    assert all(v == Q.one() for v in counit)


def test_translation_action_matrices():
    H, J = klein_twist()
    M = dual_movshev(verify_twist(J))
    for h in range(4):
        mat = M.action_matrix(h)
        for x in range(4):
            assert mat[M.act_index(h, x)][x] == Q.one()
        assert sum(1 for i in range(4) for j in range(4) if mat[i][j]) == 4


def test_certify_simple_klein():
    H, J = klein_twist()
    M = dual_movshev(verify_twist(J))
    report = certify_simple(M)
    assert report.ok
    assert M.algebra.center_dimension() == 1
    # the untwisted dual is commutative: center has full dimension
    M0 = dual_movshev(identity_twist(abelian_group((2, 2)), Q))
    report0 = certify_simple(M0)
    assert not report0.ok
    assert "FAIL" in report0.summary()


def test_regular_character_report_on_translation_matrices():
    H, J = klein_twist()
    M = dual_movshev(verify_twist(J))
    mats = [M.action_matrix(h) for h in range(4)]
    assert regular_character_report(H, mats, Q).ok
    # constant identity matrices have the wrong traces away from e
    ident = mats[0]
    bad = regular_character_report(H, [ident] * 4, Q)
    assert not bad.ok


def test_count_grouplikes():
    S3 = symmetric(3)
    assert count_grouplikes(identity_twist(S3, Q)) == 6
    H, J = klein_twist()
    assert count_grouplikes(verify_twist(J)) == 4
    # a symmetric gauge twist keeps the grouplike count of the group
    rng = random.Random(5)
    x = rand_invertible(rng, S3)
    t = gauge_transform(identity_twist(S3, Q), x)
    assert count_grouplikes(t) == 6


def test_character_table_and_fourier_roundtrip():
    rng = random.Random(11)
    for factors in ((6,), (2, 4)):
        G = abelian_group(factors)
        chars = AbelianCharacters.of_group(G, Q)
        E, powers, N = chars.exponents(), chars.powers, chars.N

        def value(s, g):
            return powers[E[s][g]]

        def conj_value(s, g):
            return powers[-E[s][g] % N]

        n = G.order
        # multiplicativity in both slots
        for _ in range(10):
            s, t = rng.randrange(n), rng.randrange(n)
            g, h = rng.randrange(n), rng.randrange(n)
            assert value(s, G.add(g, h)) == value(s, g) * value(s, h)
            assert value(G.add(s, t), g) == value(s, g) * value(t, g)
            assert conj_value(s, g) * value(s, g) == Q.one()
        x = rand_invertible(rng, G)
        vals = [x.get((g,)) for g in range(n)]
        inv_n = Q.from_fraction(Fraction(1, n))
        assert [v * inv_n for v in chars.inverse(chars.forward(vals))] == vals
    G = make_cyclic(2)
    chars = AbelianCharacters.of_group(G, Q)
    assert chars.powers[chars.exponents()[1][1]] == -Q.one()
    with pytest.raises(AlgebraError):
        AbelianCharacters.of_group(symmetric(3), Q)


def test_rational_sqrt_cyclotomic():
    for v in (2, 3, 5, 6, 12, -2, -1, 1, 0,
              Fraction(9, 4), Fraction(-49, 8), Fraction(30, 7)):
        r = rational_sqrt_cyclotomic(v)
        assert r * r == Cyc.from_fraction(Fraction(v))


def test_kth_root_scalar_roots_of_unity():
    z3 = Cyc.root_of_unity(3)
    r = kth_root_scalar(z3, 3, Q)
    assert r is not None and r ** 3 == z3
    z4 = Cyc.root_of_unity(4)
    r = kth_root_scalar(z4, 2, Q)
    assert r is not None and r * r == z4
    r = kth_root_scalar(Cyc.from_int(-1), 2, Q)
    assert r is not None and r * r == Cyc.from_int(-1)


def test_kth_root_scalar_rationals():
    assert kth_root_scalar(Cyc.from_int(8), 3, Q) == Cyc.from_int(2)
    assert kth_root_scalar(Cyc.from_int(-8), 3, Q) == Cyc.from_int(-2)
    r = kth_root_scalar(Cyc.from_fraction(Fraction(16, 81)), 4, Q)
    assert r ** 4 == Cyc.from_fraction(Fraction(16, 81))
    r = kth_root_scalar(Cyc.from_int(-4), 2, Q)
    assert r * r == Cyc.from_int(-4)
    # 2 is not a perfect square but has a cyclotomic square root
    r = kth_root_scalar(Cyc.from_int(2), 2, Q)
    assert r * r == Cyc.from_int(2)
    # and no cyclotomic cube root at all
    assert kth_root_scalar(Cyc.from_int(2), 3, Q) is None


def test_kth_root_scalar_quadratic_fields():
    t = Cyc.root_of_unity(3) * 2 + Cyc.from_fraction(Fraction(3, 5))
    v = t ** 3
    r = kth_root_scalar(v, 3, Q)
    assert r is not None and r ** 3 == v
    t = Cyc.root_of_unity(4) * 2 + 1
    v = t * t
    r = kth_root_scalar(v, 2, Q)
    assert r is not None and r * r == v
    t = Cyc.root_of_unity(3) + 1
    v = t ** 6
    r = kth_root_scalar(v, 6, Q)
    assert r is not None and r ** 6 == v
    # 2 zeta_3 has no square root in Q(zeta_3)
    assert kth_root_scalar(Cyc.root_of_unity(3) * 2, 2, Q) is None


def test_kth_root_scalar_prime_field():
    F13 = PrimeField(13)
    v = F13.from_int(5)
    r = kth_root_scalar(v, 3, F13)
    assert r is not None and r ** 3 == v
    F7 = PrimeField(7)
    assert kth_root_scalar(F7.from_int(3), 3, F7) is None


def test_trivialize_rejects_and_identity():
    V4 = abelian_group((2, 2))
    x = trivialize_symmetric_twist(identity_twist(V4, Q))
    assert x == TensorElement.basis(V4, (V4.identity,), Q)
    H, J = klein_twist()
    with pytest.raises(MovshevError):
        trivialize_symmetric_twist(verify_twist(J))
    rng = random.Random(3)
    S3 = symmetric(3)
    t = gauge_transform(identity_twist(S3, Q), rand_invertible(rng, S3))
    with pytest.raises(MovshevError):
        trivialize_symmetric_twist(t)


def test_trivialize_roundtrip_random_gauges():
    rng = random.Random(23)
    for factors, rounds in (((2, 2), 8), ((3, 3), 5), ((6,), 4)):
        G = abelian_group(factors)
        for _ in range(rounds):
            x0 = rand_invertible(rng, G)
            t = gauge_transform(identity_twist(G, Q), x0)
            x = trivialize_symmetric_twist(t)
            x_inv = algebra_invert(x)
            assert hopf_coproduct(x) * x_inv.outer(x_inv) == t.J


def test_equivariant_match_pauli():
    H, J = klein_twist()
    t = verify_twist(J)
    report = match_projective_rep(t, pauli_rep())
    assert report.ok, report.summary()
    # the untwisted algebra is commutative and cannot match End(V)
    bad = match_projective_rep(identity_twist(H, Q), pauli_rep())
    assert not bad.ok


def test_equivariant_iso_report_rejects_wrong_images():
    H, J = klein_twist()
    t = verify_twist(J)
    M = dual_movshev(t)
    rep = pauli_rep()
    images = derive_equivariant_iso(M, rep)
    assert images is not None
    # scaling one image by 2 breaks multiplicativity but not the rank
    images2 = [images[0], images[1],
               [[v + v for v in row] for row in images[2]], images[3]]
    rep2 = equivariant_iso_report(M, rep, images2)
    assert not rep2.ok
    assert any("multiplicative" in name for name, ok, _ in rep2.checks
               if not ok)


def test_gauge_movshev_iso_roundtrip():
    rng = random.Random(29)
    H, J = klein_twist()
    t1 = verify_twist(J)
    x = rand_invertible(rng, H)
    t2 = gauge_transform(t1, x)
    M1 = dual_movshev(t1)
    M2 = dual_movshev(t2)
    images = gauge_movshev_images(t1, x)
    report = movshev_iso_report(M1, M2, images)
    assert report.ok, report.summary()
    # identity images fail between genuinely different duals
    M0 = dual_movshev(identity_twist(H, Q))
    ident = [{z: Q.one()} for z in range(4)]
    assert not movshev_iso_report(M0, M1, ident).ok
