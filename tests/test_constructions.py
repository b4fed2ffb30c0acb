from fractions import Fraction

import pytest

from twistlab.scalars import CyclotomicField
from twistlab.groups import (
    make_cyclic, abelian_group, trivial_action, action_from_generator_images,
)
from twistlab.algebra import (AlgebraError, StructureConstantAlgebra,
                              TensorElement)
from twistlab.twists import (
    r_matrix, verify_minimal, twisted_antipode, drinfeld_element,
    verify_triangular,
)
from twistlab.movshev import (
    dual_movshev, certify_simple, equivariant_iso_report, movshev_iso_report,
)
from twistlab.catalog import (abelian_coordinates, all_subgroups,
                              alternating_bicharacters, builtin_groups,
                              rep_from_bicharacter)
from twistlab.constructions import (
    ConstructionError, ProjectiveRep, Cocycle2, cocycle_of_rep,
    is_nondegenerate, lift_projective, twist_from_rep,
    compose_end_images, Bijective1Cocycle, check_bijective_1cocycle,
    find_bijective_1cocycles, cocycle_ambient_group, twist_from_1cocycle,
    heisenberg_rep, commutant_dimension, cocycle_end_images, verify_eq2345,
)

Q = CyclotomicField()
HALF = Q.from_fraction(Fraction(1, 2))


def pauli_matrices():
    one, zero = Q.one(), Q.zero()
    I = [[one, zero], [zero, one]]
    X = [[zero, one], [one, zero]]
    Z = [[one, zero], [zero, -one]]
    ZX = [[zero, one], [-one, zero]]
    return I, X, Z, ZX


def pauli_rep():
    """Indexing follows abelian_group((2, 2)): (0,0), (0,1), (1,0), (1,1)."""
    V4 = abelian_group((2, 2))
    I, X, Z, ZX = pauli_matrices()
    return lift_projective(V4, Q, [I, X, Z, ZX])


def e1_data():
    G = make_cyclic(2)
    A = abelian_group((2,))
    return Bijective1Cocycle(G, A, trivial_action(G, A), (0, 1))


def e2_data(n):
    G = make_cyclic(n)
    A = abelian_group((n,))
    return Bijective1Cocycle(G, A, trivial_action(G, A),
                             tuple(range(n)))


def v4_on_z4_data():
    """V4 acting on Z/4 through inversion by the first generator."""
    G = abelian_group((2, 2))
    A = abelian_group((4,))
    neg = tuple(A.neg(a) for a in range(4))
    ident = tuple(range(4))
    action = action_from_generator_images(G, A, [2, 1], [neg, ident])
    found = find_bijective_1cocycles(G, A, action)
    assert len(found) == 2
    return found[0]


def test_lift_projective_pauli():
    rep = pauli_rep()
    V4 = rep.group
    g, b = V4.index_of((0, 1)), V4.index_of((1, 0))
    # sigma_x sigma_z = -sigma_z sigma_x shows up as a cocycle asymmetry
    ratio = rep.cocycle_value(b, g) * rep.cocycle_value(g, b).inverse()
    assert ratio == -Q.one()
    # an honest linear representation has trivial cocycle
    Z2 = make_cyclic(2)
    one, zero = Q.one(), Q.zero()
    reg = ProjectiveRep(Z2, [[[one, zero], [zero, one]],
                             [[zero, one], [one, zero]]], Q)
    assert all(v == one for row in reg.cocycle for v in row)


def test_lift_projective_normalizes_identity():
    V4 = abelian_group((2, 2))
    I, X, Z, ZX = pauli_matrices()
    five_I = [[v * 5 for v in row] for row in I]
    rep = lift_projective(V4, Q, [five_I, X, Z, ZX])
    assert rep.matrices[0] == I
    with pytest.raises(ConstructionError):
        lift_projective(V4, Q, [X, I, Z, ZX])


def test_rescaled_lift_keeps_nondegeneracy():
    V4 = abelian_group((2, 2))
    I, X, Z, ZX = pauli_matrices()
    X3 = [[v * 3 for v in row] for row in X]
    rep = pauli_rep()
    rep2 = lift_projective(V4, Q, [I, X3, Z, ZX])
    assert rep.cocycle != rep2.cocycle
    assert is_nondegenerate(V4, cocycle_of_rep(rep))
    assert is_nondegenerate(V4, cocycle_of_rep(rep2))


def test_one_dimensional_reps_are_degenerate_whatever_the_conductor():
    # a 1-dim projective rep has a coboundary cocycle, so its twisted group
    # algebra is commutative; equal bicharacter rows must count as equal
    # even when their values were reached through different conductors
    V4 = abelian_group((2, 2))
    i = Q.primitive_root(4)
    units = (Q.one(), -Q.one(), i, -i)
    for a in units:
        for b in units:
            for c in units:
                rep = ProjectiveRep(V4, [[[Q.one()]], [[a]], [[b]], [[c]]], Q)
                assert not is_nondegenerate(V4, cocycle_of_rep(rep))


def twisted_group_algebra(group, c):
    """The algebra with basis {X_g} and products X_g X_h = c(g,h) X_{gh}."""
    n = group.order
    m = [[{group.table[g][h]: c.values[g][h]} for h in range(n)]
         for g in range(n)]
    alg = StructureConstantAlgebra(
        m, {group.identity: c.field.one()}, c.field,
        labels=[f"X_{group.labels[g]}" for g in range(n)], validate=False)
    # associativity is the cocycle identity in disguise; re-check it on the
    # assembled structure constants as an independent route
    alg.validate()
    return alg


def nondegenerate_by_algebra(group, c):
    """The algebra route, the oracle of is_nondegenerate: k_c[G] is simple.

    On an abelian group the answer is cross-checked against perfectness of
    the alternating bicharacter b(g, h) = c(g, h)/c(h, g).
    """
    simple = twisted_group_algebra(group, c).center_dimension() == 1
    if group.is_abelian():
        # scalars compare and hash by value, not by printed conductor
        n = group.order
        rows = {tuple(c.values[g][h] * c.values[h][g].inverse()
                      for h in range(n)) for g in range(n)}
        assert (len(rows) == n) == simple
    return simple


def test_is_nondegenerate_matches_the_algebra_route():
    """The c-regular count against the center dimension of k_c[G], on the
    trivial cocycle of every inventory group of order 4, 8, 9, 12 and 16
    and on every bicharacter representation of their abelian subgroups.
    On nonabelian groups only the h commuting with g may count: a
    coboundary b(g) b(h) / b(gh) is degenerate, yet it takes different
    values at (g, h) and (h, g) when gh != hg; and the Heisenberg
    representation of V4 acting on Z/4 is nondegenerate on a nonabelian
    group."""
    cases = []
    for G in builtin_groups(16):
        if G.order not in (4, 8, 9, 12, 16):
            continue
        cases.append((G, Cocycle2.from_function(G, Q, lambda g, h: Q.one())))
        for members in all_subgroups(G):
            sub = G.subgroup(members)
            if len(members) not in (4, 9, 16) or not sub.is_abelian():
                continue
            coords = abelian_coordinates(sub)
            for E in alternating_bicharacters(coords[0]):
                rep = rep_from_bicharacter(sub, coords, E, Q)
                cases.append((sub, cocycle_of_rep(rep)))
    verdicts = [is_nondegenerate(G, c) for G, c in cases]
    assert verdicts == [nondegenerate_by_algebra(G, c) for G, c in cases]
    assert (verdicts.count(True), verdicts.count(False)) == (110, 21)

    nonabelian = [G for G in builtin_groups(12) if not G.is_abelian()]
    for G in nonabelian:
        b = [Q.one() if g == G.identity else Q.from_int(g + 2)
             for g in range(G.order)]
        c = Cocycle2.from_function(
            G, Q, lambda g, h: b[g] * b[h] * b[G.table[g][h]].inverse())
        assert not is_nondegenerate(G, c)
        assert not nondegenerate_by_algebra(G, c)
    assert len(nonabelian) == 6
    rep = heisenberg_rep(v4_on_z4_data())
    assert not rep.group.is_abelian()
    assert is_nondegenerate(rep.group, cocycle_of_rep(rep))
    assert nondegenerate_by_algebra(rep.group, cocycle_of_rep(rep))


def test_twisted_group_algebra():
    Z4 = make_cyclic(4)
    triv = Cocycle2.from_function(Z4, Q, lambda g, h: Q.one())
    alg = twisted_group_algebra(Z4, triv)
    for g in range(4):
        for h in range(4):
            assert alg.m[g][h] == {Z4.add(g, h): Q.one()}
    rep = pauli_rep()
    alg = twisted_group_algebra(rep.group, cocycle_of_rep(rep))
    # the two generators anticommute
    assert alg.m[1][2][3] == -alg.m[2][1][3]
    # one altered value breaks the cocycle identity and associativity
    values = [row[:] for row in rep.cocycle]
    values[1][2] = values[1][2] * 7
    with pytest.raises(ConstructionError):
        Cocycle2(rep.group, Q, values)
    bad = Cocycle2(rep.group, Q, values, validate=False)
    with pytest.raises(AlgebraError):
        twisted_group_algebra(rep.group, bad)


def test_is_nondegenerate():
    V4 = abelian_group((2, 2))
    triv = Cocycle2.from_function(V4, Q, lambda g, h: Q.one())
    assert not is_nondegenerate(V4, triv)
    assert is_nondegenerate(V4, cocycle_of_rep(pauli_rep()))
    Z2 = make_cyclic(2)
    for lam in (Q.one(), -Q.one()):
        c = Cocycle2.from_function(
            Z2, Q, lambda g, h: lam if g == h == 1 else Q.one())
        assert not is_nondegenerate(Z2, c)


def test_twist_from_rep_pauli():
    rep = pauli_rep()
    twist, images = twist_from_rep(rep, with_images=True)
    H = rep.group
    r = r_matrix(twist)
    assert verify_minimal(H, r)
    assert verify_triangular(H, twist.coproduct_basis, r).ok
    M = dual_movshev(twist)
    assert certify_simple(M).ok
    # the orbit dual basis realizes the dual algebra inside End(V)
    assert equivariant_iso_report(M, rep, images).ok
    # the Drinfeld element of the associated triangular structure is e
    u = drinfeld_element(r, twisted_antipode(twist), twist.coproduct_basis)
    assert u == TensorElement.basis(H, (H.identity,), Q)


def test_twist_from_rep_lambda_independence():
    rep = pauli_rep()
    t1, im1 = twist_from_rep(rep, seed=0, with_images=True)
    t2, im2 = twist_from_rep(rep, seed=7, with_images=True)
    M1, M2 = dual_movshev(t1), dual_movshev(t2)
    images = compose_end_images(im1, im2, Q)
    assert movshev_iso_report(M1, M2, images).ok


def test_twist_from_rep_rejects_bad_input():
    Z2 = make_cyclic(2)
    one, zero = Q.one(), Q.zero()
    reg = ProjectiveRep(Z2, [[[one, zero], [zero, one]],
                             [[zero, one], [one, zero]]], Q)
    with pytest.raises(ConstructionError):
        twist_from_rep(reg)  # 2^2 != 2
    # a degenerate cocycle on V4: honest characters give c = 1
    V4 = abelian_group((2, 2))
    diag = []
    for b in range(2):
        for g in range(2):
            diag.append([[one if b == 0 else -one, zero],
                         [zero, one if g == 0 else -one]])
    rep = ProjectiveRep(V4, diag, Q)
    with pytest.raises(ConstructionError):
        twist_from_rep(rep)


def test_find_bijective_1cocycles():
    Z2 = make_cyclic(2)
    A2 = abelian_group((2,))
    found = find_bijective_1cocycles(Z2, A2, trivial_action(Z2, A2))
    assert len(found) == 1 and found[0].pi == (0, 1)
    Z3 = make_cyclic(3)
    A3 = abelian_group((3,))
    found = find_bijective_1cocycles(Z3, A3, trivial_action(Z3, A3))
    # with trivial action the condition degenerates to isomorphism
    assert sorted(d.pi for d in found) == [(0, 1, 2), (0, 2, 1)]
    V4 = abelian_group((2, 2))
    A4 = abelian_group((2, 2))
    found = find_bijective_1cocycles(V4, A4, trivial_action(V4, A4))
    assert len(found) == 6
    with pytest.raises(ConstructionError):
        find_bijective_1cocycles(Z3, A2, trivial_action(Z3, A2))


def test_bijective_1cocycle_validation():
    G = make_cyclic(4)
    A = abelian_group((4,))
    act = trivial_action(G, A)
    data = Bijective1Cocycle(G, A, act, (0, 1, 2, 3))
    assert check_bijective_1cocycle(data)
    with pytest.raises(ConstructionError):
        Bijective1Cocycle(G, A, act, (0, 1, 1, 3))
    with pytest.raises(ConstructionError):
        Bijective1Cocycle(G, A, act, (0, 2, 1, 3))


def test_twist_from_1cocycle_e1_is_the_klein_twist():
    twist = twist_from_1cocycle(e1_data())
    assert twist.J.coeffs == {
        (0, 0): HALF, (0, 1): HALF, (2, 0): HALF, (2, 1): -HALF}


def test_twist_from_1cocycle_e2():
    twist = twist_from_1cocycle(e2_data(3))
    third = Q.from_fraction(Fraction(1, 3))
    z3 = Q.primitive_root(3)
    # coefficient of b (x) g is zeta_3^(g b) / 3
    assert twist.J.coeffs[(3, 1)] == z3 * third
    assert twist.J.coeffs[(0, 2)] == third
    assert twist.J.coeffs[(3, 2)] == z3 * z3 * third
    assert twist.J.coeffs[(6, 2)] == z3 * third
    H = twist.group
    assert verify_minimal(H, r_matrix(twist))


def test_twist_from_1cocycle_trivial_group():
    G = make_cyclic(1)
    A = abelian_group((1,))
    data = Bijective1Cocycle(G, A, trivial_action(G, A), (0,))
    twist = twist_from_1cocycle(data)
    assert twist.J == TensorElement.unit(twist.group, 2, Q)


def test_heisenberg_rep_e1_and_e2():
    rep = heisenberg_rep(e1_data())
    one, zero = Q.one(), Q.zero()
    assert rep.matrices[2] == [[one, zero], [zero, -one]]
    assert rep.matrices[1] == [[zero, one], [one, zero]]
    assert rep.dim == 2 and commutant_dimension(rep) == 1
    rep3 = heisenberg_rep(e2_data(3))
    z3 = Q.primitive_root(3)
    diag = rep3.matrices[3]
    assert [diag[a][a] for a in range(3)] == [one, z3 ** 2, z3]
    shift = rep3.matrices[1]
    assert all(shift[(a + 1) % 3][a] == one for a in range(3))


def test_commutant_detects_reducible():
    Z2 = make_cyclic(2)
    one, zero = Q.one(), Q.zero()
    rep = ProjectiveRep(Z2, [[[one, zero], [zero, one]],
                             [[one, zero], [zero, -one]]], Q)
    assert commutant_dimension(rep) == 2


def test_verify_eq2345_e1():
    report = verify_eq2345(e1_data())
    assert report.ok, report.summary()
    # spot value in the rescaled basis: the operator for bg sends
    # delta_1 to -delta_1
    data = e1_data()
    images = cocycle_end_images(data)
    U = [[v * 2 * (-Q.one()) for v in row] for row in images[3]]
    assert U[1][1] == -Q.one() and U[0][0] == Q.zero()


def test_verify_eq2345_e2_and_nontrivial_action():
    assert verify_eq2345(e2_data(3)).ok
    report = verify_eq2345(v4_on_z4_data())
    assert report.ok, report.summary()


def test_verify_eq2345_trivial_data():
    G = make_cyclic(1)
    A = abelian_group((1,))
    data = Bijective1Cocycle(G, A, trivial_action(G, A), (0,))
    assert verify_eq2345(data).ok


def test_cocycle_twist_matches_rep_twist():
    # building the twist from the Heisenberg representation of the same
    # data gives an equivariantly isomorphic dual algebra
    for data in (e1_data(), e2_data(3)):
        H = cocycle_ambient_group(data)
        t1 = twist_from_1cocycle(data, Q, H)
        rep = heisenberg_rep(data, Q, H)
        t2, im2 = twist_from_rep(rep, with_images=True)
        im1 = cocycle_end_images(data)
        M1, M2 = dual_movshev(t1), dual_movshev(t2)
        images = compose_end_images(im1, im2, Q)
        assert movshev_iso_report(M1, M2, images).ok
