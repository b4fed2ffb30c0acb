import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from twistlab.scalars import Cyc, CyclotomicField, PrimeField
from twistlab.groups import (FiniteGroup, make_cyclic, abelian_group,
                             alternating4, dihedral, symmetric)
from twistlab.algebra import (
    AbelianCharacters, TensorElement, AlgebraError, algebra_invert,
    hopf_coproduct, hopf_counit, mat_inverse, mat_mul,
)
from twistlab.twists import (CheckReport, verify_twist, identity_twist,
                             gauge_transform)
from twistlab.constructions import twist_from_1cocycle
from twistlab.catalog import enumerate_quadruples, finder_scan
from twistlab.movshev import (
    MovshevError, build_BJ, dual_movshev, certify_simple,
    regular_character_report, count_grouplikes,
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
    M = dual_movshev(t)
    M.algebra.validate()
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
    assert regular_character_report(M.group, M.field).ok


def test_klein_dual_matches_closed_form():
    H, J = klein_twist()
    t = verify_twist(J)
    M = dual_movshev(t)
    M.algebra.validate()
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


def translation_failure(M):
    """First (h, a, b) where translation by h moves the product Y_a Y_b
    elsewhere than to Y_ha Y_hb: the n^3 loop dual_movshev no longer runs."""
    table, m, n = M.group.table, M.algebra.m, M.group.order
    for h in range(n):
        row = table[h]
        for a in range(n):
            for b in range(n):
                moved = {row[c]: v for c, v in m[a][b].items()}
                if m[row[a]][row[b]] != moved:
                    return h, a, b
    return None


def gauge(tw, s, t):
    """The gauge of tw by x = 4e + s + 2t, rescaled to counit 1."""
    G = tw.group
    x = TensorElement(G, 1, Q, {(G.identity,): Q.from_int(4),
                                (s,): Q.from_int(1), (t,): Q.from_int(2)})
    return gauge_transform(tw, x.scale(hopf_counit(x).inverse()))


def test_translation_is_an_automorphism_of_every_dual():
    """m[a][b][c] = J(c^-1 a, c^-1 b) is translation invariant for every J:
    on the finder twists with |H| <= 16 (11 on abelian H, two not), the
    catalog twists on H at orders 8, 9 and 12, gauge twists on nonabelian
    groups, and a tensor that is no twist at all."""
    twists = [twist_from_1cocycle(data) for entry in finder_scan(max_order=4)
              for data in entry.cocycles]
    assert len(twists) == 13
    for order in (8, 9, 12):
        twists += [datum.twist_H for datum in enumerate_quadruples(order)]
    for G in (symmetric(3), dihedral(4), alternating4()):
        twists.append(gauge(identity_twist(G, Q), *G.generating_sequence()))
    rng = random.Random(3)
    G = symmetric(3)
    J = TensorElement(G, 2, Q, {(rng.randrange(6), rng.randrange(6)):
                                Q.from_int(rng.randint(1, 5))
                                for _ in range(8)})
    twists.append(SimpleNamespace(group=G, field=Q, J=J))
    for tw in twists:
        assert translation_failure(dual_movshev(tw)) is None, tw.group.name
    # the oracle sees a product moved by hand
    M = dual_movshev(verify_twist(klein_twist()[1]))
    M.algebra.m[0][1] = {0: Q.from_int(5)}
    assert translation_failure(M) is not None


def test_build_bj_row_at_identity_is_J():
    H, J = klein_twist()
    t = verify_twist(J)
    rows, counit = build_BJ(t)
    assert rows[0] == J
    assert all(v == Q.one() for v in counit)


def action_matrix(group, field, h):
    """The dense permutation matrix of Y_x -> Y_hx, which the regular
    character report no longer builds."""
    n = group.order
    zero, one = field.zero(), field.one()
    mat = [[zero] * n for _ in range(n)]
    for x in range(n):
        mat[group.table[h][x]][x] = one
    return mat


def dense_character_report(group, field):
    """The regular character report from the diagonals of the dense action
    matrices: the oracle for the fixed-point count."""
    report = CheckReport(f"regular character over {group.name}")
    n = group.order
    for g in range(n):
        mat = action_matrix(group, field, g)
        tr = field.zero()
        for i in range(n):
            tr = tr + mat[i][i]
        want = field.from_int(n) if g == group.identity else field.zero()
        report.add(f"trace at {group.labels[g]}", tr == want,
                   f"trace {tr}, expected {want}")
    return report


def test_translation_action_matrices():
    H, J = klein_twist()
    M = dual_movshev(verify_twist(J))
    for h in range(4):
        mat = action_matrix(H, Q, h)
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
    """The fixed-point count against the traces of the dense translation
    matrices, on groups and on a table that is no group, where an element
    other than the identity fixes a point and the report fails with the
    dense trace as its witness."""
    F7 = PrimeField(7)
    cases = [(G, field) for G in (abelian_group((2, 2)), symmetric(3),
                                  dihedral(4), alternating4(),
                                  abelian_group((2, 4)))
             for field in (Q, F7)]
    not_a_group = FiniteGroup([[0, 1, 2], [1, 0, 2], [2, 1, 0]],
                              validate=False)
    cases += [(not_a_group, Q), (not_a_group, F7)]
    for group, field in cases:
        report = regular_character_report(group, field)
        oracle = dense_character_report(group, field)
        assert report.checks == oracle.checks, group.name
        assert report.summary() == oracle.summary()
        assert report.ok == (group is not not_a_group)
    assert regular_character_report(not_a_group, Q).failures() == [
        ("trace at g1", "trace Q(z_1) 1, expected Q(z_1) 0"),
        ("trace at g2", "trace Q(z_1) 1, expected Q(z_1) 0")]


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


def combine_matrices(images, vec):
    """sum_c vec[c] images[c] for matrix images."""
    d = len(images[0])
    out = [[Q.zero()] * d for _ in range(d)]
    for c, v in vec.items():
        for i, row in enumerate(images[c]):
            for j, w in enumerate(row):
                if w:
                    out[i][j] = out[i][j] + v * w
    return out


def combine_vectors(images, vec):
    """sum_c vec[c] images[c] for dict-vector images."""
    out = {}
    for c, v in vec.items():
        for j, w in images[c].items():
            out[j] = out.get(j, Q.zero()) + v * w
    return {j: w for j, w in out.items() if w}


def end_iso_oracle(M, rep, images):
    """(failing pairs, equivariant) for equivariant_iso_report's map, by
    the loops it no longer runs: every pair (a, b) and every (h, x)."""
    group, field, n = M.group, M.field, M.group.order
    bad = [(a, b) for a in range(n) for b in range(n)
           if mat_mul(images[a], images[b], field) !=
           combine_matrices(images, M.algebra.m[a][b])]
    inverses = [mat_inverse(mat, field) for mat in rep.matrices]
    equi = all(images[group.table[h][x]] == mat_mul(
        mat_mul(rep.matrices[h], images[x], field), inverses[h], field)
        for h in range(n) for x in range(n))
    return bad, equi


def dual_iso_oracle(M1, M2, images):
    """(failing pairs, equivariant) for movshev_iso_report's map, by the
    loops it no longer runs.  Row a keeps the products phi(Y_a) Y_j, so
    phi(Y_a) phi(Y_b) is their combination by phi(Y_b)."""
    table, n, one = M1.group.table, M1.group.order, M1.field.one()
    bad = []
    for a in range(n):
        row = [M2.algebra.mult_vec(images[a], {j: one}) for j in range(n)]
        bad += [(a, b) for b in range(n)
                if combine_vectors(row, images[b]) !=
                combine_vectors(images, M1.algebra.m[a][b])]
    equi = all(images[table[h][x]] ==
               {table[h][j]: v for j, v in images[x].items()}
               for h in range(n) for x in range(n))
    return bad, equi


def iso_lines(report):
    """(multiplicative, equivariant) as the report states them."""
    lines = {name: ok for name, ok, _ in report.checks}
    return lines["multiplicative"], lines["equivariant"]


def klein_rho(H):
    """rho = id + K g on the Klein dual B, as rows rho(Y_x) = sum_c
    rows[x][c] Y_c.  K = Y_(0,1) - Y_e spans part of the kernel of left
    multiplication by Y_e, and g(Y_(0,1)) = 1 = -g(Y_(1,1)) vanishes on
    Y_e B = <Y_e, Y_(1,0)> and on the unit.  So phi o rho agrees with an
    isomorphism phi at every pair (e, b), is bijective (1 + g(K) = 2) and
    unital, but is not equivariant, and rho is no automorphism."""
    e, y01, y11 = (H.index_of(t) for t in ((0, 0), (0, 1), (1, 1)))
    one = Q.one()
    rows = [{x: one} for x in range(H.order)]
    rows[y01] = {y01: one + one, e: -one}
    rows[y11] = {y11: one, y01: -one, e: one}
    return rows


def test_iso_reports_against_the_full_loops_under_mutation():
    """Mutation 1 is multiplicative at every (e, b) but not equivariant:
    "equivariant" fails, and "multiplicative" falls back to every pair and
    fails with the first failing pair.  Mutation 2, the images times 3, is
    equivariant and not multiplicative.  Mutation 3 is multiplicative and
    fails equivariance only away from the first generator."""
    H, J = klein_twist()
    t1 = verify_twist(J)
    x = rand_invertible(random.Random(29), H)
    M1, M2, rep = dual_movshev(t1), dual_movshev(gauge_transform(t1, x)), \
        pauli_rep()
    cases = (
        (lambda im: equivariant_iso_report(M1, rep, im),
         lambda im: end_iso_oracle(M1, rep, im),
         derive_equivariant_iso(M1, rep), combine_matrices),
        (lambda im: movshev_iso_report(M1, M2, im),
         lambda im: dual_iso_oracle(M1, M2, im),
         gauge_movshev_images(t1, x), combine_vectors))
    for report_of, oracle, phi, combine in cases:
        assert report_of(phi).ok and oracle(phi) == ([], True)
        mutant = [combine(phi, row) for row in klein_rho(H)]
        bad, equi = oracle(mutant)
        assert bad and all(a != H.identity for a, _ in bad) and not equi
        report = report_of(mutant)
        assert all(ok for _, ok, _ in report.checks[:3])    # bijective, unital
        assert iso_lines(report) == (False, False)
        a, b = bad[0]
        assert report.checks[3][2].endswith(f"({H.labels[a]}, {H.labels[b]})")
        three = [combine(phi, {c: Q.from_int(3)}) for c in range(H.order)]
        bad, equi = oracle(three)
        assert bad and equi
        assert iso_lines(report_of(three)) == (False, True)
    # Mutation 3: conjugation by P = 2 + pi(s), s the first generator, is
    # an automorphism of End(V) that commutes with pi(s) but not with the
    # second generator's matrix
    s = H.generating_sequence()[0]
    P = [[v + 2 * (i == j) for j, v in enumerate(row)]
         for i, row in enumerate(rep.matrices[s])]
    P_inv = mat_inverse(P, Q)
    phi = derive_equivariant_iso(M1, rep)
    mutant = [mat_mul(mat_mul(P, im, Q), P_inv, Q) for im in phi]
    assert end_iso_oracle(M1, rep, mutant) == ([], False)
    assert iso_lines(equivariant_iso_report(M1, rep, mutant)) == (True, False)


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
