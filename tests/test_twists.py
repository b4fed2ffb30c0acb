import random
from fractions import Fraction

import pytest

from twistlab.scalars import Cyc, CyclotomicField
from twistlab import twists
from twistlab.groups import (make_cyclic, abelian_group, alternating4,
                             dihedral, symmetric)
from twistlab.algebra import (
    TensorElement, AlgebraError, algebra_invert, hopf_counit, mat_rank,
    regular_trace,
)
from twistlab.twists import (
    TwistError, first_difference, check_twist, verify_twist, identity_twist,
    gauge_transform, r_matrix, twisted_coproduct, coassociativity_ok,
    twisted_antipode, drinfeld_element, r_u, check_triangular,
    verify_triangular, leg_span_rank, verify_minimal, GroupAlgebraMap,
    Twist, TRIANGULAR_LINES, TWIST_LINES, triangular_structure,
)
from twistlab.constructions import twist_from_1cocycle
from twistlab.catalog import enumerate_quadruples, finder_scan

Q = CyclotomicField()
HALF = Q.from_fraction(Fraction(1, 2))


def klein_twist():
    """J = (1/2)(1 (x) 1 + 1 (x) g + b (x) 1 - b (x) g) on Z/2 x Z/2.

    Here b = (1,0) (index 2) and g = (0,1) (index 1); identity has index 0.
    """
    H = abelian_group((2, 2))
    J = TensorElement(H, 2, Q, {
        (0, 0): HALF, (0, 1): HALF, (2, 0): HALF, (2, 1): -HALF})
    return H, J


def plain_structure(group, field):
    """Coproduct and antipode of the untwisted group algebra."""
    coproduct = lambda g: TensorElement.basis(group, (g, g), field)
    antipode = GroupAlgebraMap(group, field, [
        TensorElement.basis(group, (group.inv[g],), field)
        for g in range(group.order)])
    return coproduct, antipode


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


def test_identity_twist_and_counit_failure():
    G = make_cyclic(3)
    t = identity_twist(G, Q)
    assert t.J == TensorElement.unit(G, 2, Q)
    # 1 (x) 1 + e (x) g fails the counit identity
    bad = TensorElement(G, 2, Q, {(0, 0): Q.one(), (0, 1): Q.one()})
    report = check_twist(bad)
    assert not report.ok
    names = [n for n, _ in report.failures()]
    assert "counit left leg" in names or "counit right leg" in names
    with pytest.raises(TwistError):
        verify_twist(bad)


def test_klein_twist_is_valid():
    H, J = klein_twist()
    t = verify_twist(J)
    assert t.J * t.j_inv == TensorElement.unit(H, 2, Q)
    assert coassociativity_ok(t)
    # a non-symmetric twist: swapping legs changes it
    assert not t.is_symmetric()


def test_klein_twist_r_matrix_triangular_and_minimal():
    H, J = klein_twist()
    t = verify_twist(J)
    r = r_matrix(t)
    report = verify_triangular(H, t.coproduct_basis, r)
    assert report.ok
    # the R-matrix legs span all of k[H]
    assert leg_span_rank(H, r) == 4
    assert verify_minimal(H, r)
    # R = 1 (x) 1 spans only a line
    assert not verify_minimal(H, TensorElement.unit(H, 2, Q))


def test_klein_twist_drinfeld_element_is_identity():
    H, J = klein_twist()
    t = verify_twist(J)
    r = r_matrix(t)
    s = twisted_antipode(t)
    u = drinfeld_element(r, s, t.coproduct_basis)
    assert u == TensorElement.unit(H, 1, Q)
    # regular trace of left multiplication by u equals dim k[H]
    assert regular_trace(u) == Q.from_int(4)


def test_abelian_twisted_antipode_is_the_conjugation():
    """Over an abelian group S_J(g) = g^-1 is read off without conjugating;
    Q^-1 g^-1 Q, the general formula, is the reference.  Q U = 1 is still
    checked, so a singular Q still raises."""
    rng = random.Random(5)
    C2xC4 = abelian_group((2, 4))
    klein = verify_twist(klein_twist()[1])
    for tw in (klein,
               gauge_transform(klein, rand_invertible(rng, klein.group)),
               gauge_transform(identity_twist(C2xC4, Q),
                               rand_invertible(rng, C2xC4))):
        group = tw.group
        conj = tw.J.antipode_leg(0).merge_legs(0, 1)
        assert conj != TensorElement.unit(group, 1, Q)
        conj_inv = algebra_invert(conj)
        want = [conj_inv * TensorElement.basis(group, (group.inv[g],), Q)
                * conj for g in range(group.order)]
        assert twisted_antipode(tw).images == want
    C2 = make_cyclic(2)
    J = TensorElement(C2, 2, Q, {(0, 0): Q.one(), (1, 0): -Q.one()})
    with pytest.raises(TwistError, match="conjugator is not invertible"):
        twisted_antipode(Twist(J, J))


def test_value_names_name_values_not_representations():
    """Q(z_1) 1 and Q(z_4) 1 are one value with one name, so a table that
    mixes them passes every character-side line."""
    C4 = make_cyclic(4)
    _, add = twists.character_table(TensorElement.unit(C4, 2, Q))
    mixed = [[Cyc.from_int(1, 4) if (s + t) % 2 else Q.one()
              for t in range(4)] for s in range(4)]
    assert {str(v) for row in mixed for v in row} == {"Q(z_1) 1",
                                                       "Q(z_4) 1"}
    names = twists.ValueNames(Q, mixed)
    assert {i for row in names.grid for i in row} == {names.ONE}
    assert all(ok for _, ok, _ in twists.triangular_lines(Q, mixed, add))
    assert twists.cocycle_failure(Q, mixed, add) is None


def test_twisted_coproduct_on_abelian_base():
    H, J = klein_twist()
    t = verify_twist(J)
    # on an abelian group conjugation by J is trivial; check against the
    # honest product J^{-1}(g (x) g)J
    for g in range(4):
        gg = TensorElement.basis(H, (g, g), Q)
        honest = t.j_inv * gg * t.J
        assert t.coproduct_basis(g) == honest
        assert t.coproduct_basis(g) == gg
    x = TensorElement(H, 1, Q, {(1,): Q.from_int(2), (3,): Q.from_int(-1)})
    dx = twisted_coproduct(t, x)
    assert dx == TensorElement(H, 2, Q, {
        (1, 1): Q.from_int(2), (3, 3): Q.from_int(-1)})


def test_gauge_transform_properties():
    rng = random.Random(41)
    H, J = klein_twist()
    t = verify_twist(J)
    e = TensorElement.unit(H, 1, Q)
    assert gauge_transform(t, e).J == t.J
    for _ in range(5):
        x = rand_invertible(rng, H)
        y = rand_invertible(rng, H)
        tx = gauge_transform(t, x)
        txy = gauge_transform(tx, y)
        yx = y * x
        assert txy.J == gauge_transform(t, yx).J
    with pytest.raises(TwistError):
        gauge_transform(t, TensorElement(H, 1, Q, {
            (0,): Q.one(), (1,): -Q.one()}))  # counit zero


def test_gauge_of_identity_is_symmetric():
    rng = random.Random(17)
    G = make_cyclic(4)
    t = identity_twist(G, Q)
    x = rand_invertible(rng, G)
    tx = gauge_transform(t, x)
    assert tx.is_symmetric()
    # symmetric twists have trivial R-matrix
    assert r_matrix(tx) == TensorElement.unit(G, 2, Q)


def test_gauge_conjugates_r_matrix_and_preserves_minimality():
    rng = random.Random(29)
    H, J = klein_twist()
    t = verify_twist(J)
    r = r_matrix(t)
    x = rand_invertible(rng, H)
    x = x.scale(hopf_counit(x).inverse())
    tx = gauge_transform(t, x)
    xx = x.outer(x)
    xinv = algebra_invert(x)
    assert r_matrix(tx) == xx * r * xinv.outer(xinv)
    assert verify_minimal(H, r_matrix(tx)) == verify_minimal(H, r)


def test_nonabelian_symmetric_twist():
    rng = random.Random(7)
    G = symmetric(3)
    t0 = identity_twist(G, Q)
    x = rand_invertible(rng, G)
    t = gauge_transform(t0, x)
    assert t.is_symmetric()
    assert coassociativity_ok(t)
    # twisted coproduct genuinely differs from the group coproduct here
    assert any(t.coproduct_basis(g)
               != TensorElement.basis(G, (g, g), Q) for g in range(6))
    s = twisted_antipode(t)
    r = TensorElement.unit(G, 2, Q)
    assert verify_triangular(G, t.coproduct_basis, r).ok
    u = drinfeld_element(r, s, t.coproduct_basis)
    assert u == TensorElement.unit(G, 1, Q)


def test_r_u_structure():
    G = make_cyclic(2)
    assert r_u(G, Q, 0) == TensorElement.unit(G, 2, Q)
    ru = r_u(G, Q, 1)
    assert ru == TensorElement(G, 2, Q, {
        (0, 0): HALF, (0, 1): HALF, (1, 0): HALF, (1, 1): -HALF})
    assert ru.swap() * ru == TensorElement.unit(G, 2, Q)
    assert ru * ru == TensorElement.unit(G, 2, Q)
    coproduct, antipode = plain_structure(G, Q)
    assert verify_triangular(G, coproduct, ru).ok
    # drinfeld element of (k[Z/2], R_u) is the generator
    u = drinfeld_element(ru, antipode, coproduct)
    assert u == TensorElement.basis(G, (1,), Q)
    assert regular_trace(u) == Q.zero()


def test_r_u_rejects_bad_elements():
    G = make_cyclic(4)
    with pytest.raises(TwistError):
        r_u(G, Q, 1)  # order 4
    S3 = symmetric(3)
    transposition = next(g for g in range(6) if S3.element_order(g) == 2)
    with pytest.raises(TwistError):
        r_u(S3, Q, transposition)  # involution but not central


def test_triangular_failure_cases():
    G = make_cyclic(2)
    coproduct, antipode = plain_structure(G, Q)
    bad = TensorElement.basis(G, (0, 1), Q)
    report = check_triangular(G, coproduct, bad)
    assert not report.ok
    failed = [n for n, _ in report.failures()]
    assert any("hexagon" in n for n in failed)
    with pytest.raises(TwistError):
        verify_triangular(G, coproduct, bad)
    assert "FAIL" in report.summary()


def test_first_difference_reports_witness():
    G = make_cyclic(2)
    a = TensorElement.unit(G, 2, Q)
    b = TensorElement(G, 2, Q, {(0, 0): Q.one(), (1, 1): Q.one()})
    key, va, vb = first_difference(a, b)
    assert key == (1, 1)
    assert va == Q.zero() and vb == Q.one()
    assert first_difference(a, a) is None


def forbid(monkeypatch, name):
    """Make twists.<name> raise, so a test proves a path never calls it."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    monkeypatch.setattr(twists, name, called)


def count_inversions(monkeypatch):
    calls = []

    def counted(t, *args, **kwargs):
        calls.append(t)
        return algebra_invert(t, *args, **kwargs)
    monkeypatch.setattr(twists, "algebra_invert", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: verify_twist(klein_twist()[1]),
    lambda: identity_twist(symmetric(3), Q),
    lambda: identity_twist(dihedral(4), Q),
], ids=["C2xC2", "S3", "D4"])
def test_gauge_carries_a_twist_and_its_inverse(make, monkeypatch):
    """J^x and (x (x) x) J^{-1} Delta(x^{-1}) against the from-scratch
    oracle: check_twist on J^x and algebra_invert on it."""
    t = make()
    x = rand_invertible(random.Random(t.group.order), t.group)
    with monkeypatch.context() as m:
        forbid(m, "check_twist")
        tx = gauge_transform(t, x)
    report = check_twist(tx.J)
    assert report.ok, report.summary()
    assert tx.j_inv == report.j_inv == algebra_invert(tx.J)


def test_unitary_r_matrix_is_not_inverted(monkeypatch):
    """R_21 R = 1 (x) 1 proves R invertible and u^2 = 1 proves u is; the
    report is the one that inverting R gives."""
    H, J = klein_twist()
    t = verify_twist(J)
    r = r_matrix(t)
    s = twisted_antipode(t)
    calls = count_inversions(monkeypatch)
    report = check_triangular(H, t.coproduct_basis, r)
    u = drinfeld_element(r, s, t.coproduct_basis)
    assert calls == []
    assert report.ok and report.checks[0] == ("R invertible", True, "")
    assert u == TensorElement.unit(H, 1, Q)


def test_zero_divisor_r_matrix_is_still_inverted(monkeypatch):
    """R = 1 (x) 1 + g (x) g fails unitarity, so R is inverted as before
    and its report keeps the zero-divisor witness."""
    G = make_cyclic(2)
    coproduct, _ = plain_structure(G, Q)
    r = TensorElement(G, 2, Q, {(0, 0): Q.one(), (1, 1): Q.one()})
    calls = count_inversions(monkeypatch)
    report = check_triangular(G, coproduct, r)
    assert calls == [r]
    assert report.checks == [
        ("R invertible", False, "element is a zero divisor (not invertible)"),
        ("unitarity R_21 R = 1", False, "at (0, 0): Q(z_1) 2 != Q(z_1) 1"),
        ("R-commutation with coproduct", True, ""),
        ("hexagon (Delta (x) I)R = R13 R23", False,
         "at (0, 1, 1): Q(z_1) 0 != Q(z_1) 1"),
        ("hexagon (I (x) Delta)R = R13 R12", False,
         "at (0, 1, 1): Q(z_1) 0 != Q(z_1) 1"),
    ]


def central_involutions(G):
    return [u for u in range(G.order) if G.table[u][u] == G.identity
            and all(G.table[u][g] == G.table[g][u] for g in range(G.order))]


def assert_lemma_matches_check_triangular(tw, where):
    """triangular_structure against check_triangular on the R it returns,
    without u and with every central involution u of the group."""
    G = tw.group
    for u in [None] + central_involutions(G):
        r, report = triangular_structure(tw, u)
        want = r_matrix(tw)
        if u is not None:
            want = want * r_u(G, tw.field, u)
        assert r == want, (where, u)
        oracle = check_triangular(G, tw.coproduct_basis, r)
        assert oracle.ok, (where, u, oracle.summary())
        assert report.summary() == oracle.summary(), (where, u)
        assert report.checks == oracle.checks, (where, u)
        assert [n for n, _, _ in report.checks] == list(TRIANGULAR_LINES)


def gauge(tw, s, t):
    """The gauge of tw by x = 4e + s + 2t, rescaled to counit 1."""
    G = tw.group
    x = TensorElement(G, 1, Q, {(G.identity,): Q.from_int(4),
                                (s,): Q.from_int(1), (t,): Q.from_int(2)})
    return gauge_transform(tw, x.scale(hopf_counit(x).inverse()))


def test_lemma_route_matches_check_triangular_on_finder_and_gauge_twists():
    checked = 0
    for entry in finder_scan(max_order=4):
        for pos, data in enumerate(entry.cocycles):
            tw = twist_from_1cocycle(data)
            if tw.group.is_abelian():
                assert_lemma_matches_check_triangular(tw, (entry.label, pos))
                checked += 1
    assert checked == 11
    for G in (symmetric(3), dihedral(4), alternating4()):
        s, t = G.generating_sequence()
        assert_lemma_matches_check_triangular(
            gauge(identity_twist(G, Q), s, t), G.name)


def test_lemma_route_matches_check_triangular_on_catalog_data():
    """Every distinct twist of the catalog at orders 8, 9 and 12, and a
    gauge of each nonabelian one at order 8, whose coproduct and R are
    then both far from the group's."""
    twists_seen = []
    for order in (8, 9, 12):
        for datum in enumerate_quadruples(order):
            tw = datum.twist
            if any(tw.J == other.J for other in twists_seen):
                continue
            twists_seen.append(tw)
            where = (datum.quadruple.G.name, len(datum.quadruple.members))
            assert_lemma_matches_check_triangular(tw, where)
            if order == 8 and not tw.group.is_abelian() and \
                    len(datum.quadruple.members) > 1:
                s, t = tw.group.generating_sequence()
                assert_lemma_matches_check_triangular(gauge(tw, s, t), where)
    assert len(twists_seen) == 18


def test_twist_report_matches_check_twist():
    """A Twist's report equals check_twist's report on its J, whichever
    way the twist was certified: verify_twist, gauge_transform (also on
    nonabelian groups) or embed_twist (the catalog at order 8)."""
    tw = verify_twist(klein_twist()[1])
    made = [tw, gauge(tw, 1, 2)]
    made += [gauge(identity_twist(G, Q), *G.generating_sequence())
             for G in (symmetric(3), dihedral(4))]
    made += [datum.twist for datum in enumerate_quadruples(8)]
    for tw in made:
        oracle = check_twist(tw.J)
        assert tw.report().checks == oracle.checks
        assert tw.report().summary() == oracle.summary()
    assert [name for name, _, _ in oracle.checks] == list(TWIST_LINES)


def antipode_axiom_failure(tw, smap):
    """First label g where m(S_J (x) I) Delta_J(g) or m(I (x) S_J) Delta_J(g)
    is not eps(g) 1 = 1: the loop twisted_antipode no longer runs."""
    unit1 = TensorElement.unit(tw.group, 1, tw.field)
    for g in range(tw.group.order):
        d = tw.coproduct_basis(g)
        if twists._fold_map(d, smap, 0) != unit1 or \
                twists._fold_map(d, smap, 1) != unit1:
            return tw.group.labels[g]
    return None


def conjugators(tw):
    """(Q, U) = (m(S (x) I)(J), m(I (x) S)(J^-1))."""
    return (tw.J.antipode_leg(0).merge_legs(0, 1),
            tw.j_inv.antipode_leg(1).merge_legs(0, 1))


def nonabelian_gauges():
    return [gauge(identity_twist(G, Q), *G.generating_sequence())
            for G in (symmetric(3), dihedral(4), alternating4())]


def test_twisted_antipode_against_the_axiom_oracle():
    """Both antipode axioms for (Delta_J, eps, S_J) on every basis element,
    and U = Q^-1 from scratch, on the finder twists with |H| <= 16 (the two
    on the nonabelian C2xC2-on-C4 group among them), every catalog twist at
    orders 8, 9 and 12, and the S3, D4 and A4 gauge twists."""
    cases = [twist_from_1cocycle(data) for entry in finder_scan(max_order=4)
             for data in entry.cocycles]
    assert len(cases) == 13
    for order in (8, 9, 12):
        cases += [datum.twist for datum in enumerate_quadruples(order)]
    cases += nonabelian_gauges()
    nonabelian = 0
    for tw in cases:
        smap = twisted_antipode(tw)
        assert antipode_axiom_failure(tw, smap) is None, tw.group.name
        conj, conj_inv = conjugators(tw)
        assert conj_inv == algebra_invert(conj), tw.group.name
        nonabelian += not tw.group.is_abelian()
    assert nonabelian == 17


def test_antipode_mutations_are_caught():
    """The swapped conjugation Q S Q^-1 fails the axiom oracle on every
    nonabelian gauge twist, and a Twist carrying a wrong inverse raises."""
    for tw in nonabelian_gauges():
        G = tw.group
        conj, conj_inv = conjugators(tw)
        assert conj != TensorElement.unit(G, 1, Q)
        swapped = GroupAlgebraMap(G, Q, [
            conj * TensorElement.basis(G, (G.inv[g],), Q) * conj_inv
            for g in range(G.order)])
        assert antipode_axiom_failure(tw, twisted_antipode(tw)) is None
        assert antipode_axiom_failure(tw, swapped) is not None, G.name
        wrong = Twist(tw.J, identity_twist(G, Q).j_inv)
        with pytest.raises(TwistError,
                           match="^antipode conjugator is not invertible"):
            twisted_antipode(wrong)


def test_twisted_antipode_inverts_nothing_and_checks_no_axiom(monkeypatch):
    """S_J conjugates by the U read off the carried J^-1: no inversion and
    no twisted coproduct, on the A4 gauge twist, where inverting Q took
    the Krylov route."""
    tw = nonabelian_gauges()[2]
    with monkeypatch.context() as m:
        forbid(m, "algebra_invert")
        m.setattr(Twist, "coproduct_basis", lambda self, g: pytest.fail(
            "coproduct_basis was called"))
        smap = twisted_antipode(tw)
    assert antipode_axiom_failure(tw, smap) is None


def test_leg_span_rank_ranks_once(monkeypatch):
    """One mat_rank call per R; the rank of the columns, which is no longer
    computed, is the oracle."""
    cases = [r_matrix(twist_from_1cocycle(data))
             for entry in finder_scan(max_order=4) for data in entry.cocycles]
    cases += [r_matrix(tw) for tw in nonabelian_gauges()]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mat_rank(*args, **kwargs)
    monkeypatch.setattr(twists, "mat_rank", counted)
    for r in cases:
        n, zero = r.group.order, Q.zero()
        cols = {}
        for (a, b), v in r.coeffs.items():
            cols.setdefault(b, [zero] * n)[a] = v
        del calls[:]
        assert leg_span_rank(r.group, r) == mat_rank(list(cols.values()), n)
        assert len(calls) == 1
