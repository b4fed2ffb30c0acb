import itertools
from math import lcm

import pytest

from twistlab.scalars import Cyc, CyclotomicField
from twistlab.groups import abelian_group, make_cyclic, symmetric
from twistlab.twists import check_triangular, leg_span_rank, r_matrix
from twistlab.movshev import count_grouplikes, dual_movshev
from twistlab.constructions import (cocycle_ambient_group,
                                    cocycle_twist_tensor, is_nondegenerate,
                                    cocycle_of_rep, twist_from_1cocycle)
from twistlab.catalog import (AbelianTwistTable, CatalogError, Quadruple,
                              abelian_coordinates, admissible_primes,
                              all_subgroups, alternating_bicharacters,
                              builtin_groups, char_p_mirror,
                              cocycle_relabeling, darboux_pairs,
                              dual_automorphism_perm, enumerate_quadruples,
                              finder_scan, is_minimal_datum,
                              realize_quadruple, relabel_tensor,
                              rep_from_bicharacter, transport_isomorphism,
                              transport_twist_perm)


def test_abelian_coordinates_roundtrip():
    G = abelian_group((2, 4))
    orders, dlog, elements = abelian_coordinates(G)
    assert sorted(orders, reverse=True) == [4, 2]
    assert len(dlog) == 8 and len(elements) == 8
    for g, coords in dlog.items():
        assert elements[coords] == g
    with pytest.raises(CatalogError):
        abelian_coordinates(symmetric(3))


def test_alternating_bicharacter_counts():
    # (2,2): one symplectic form; (3,3) and (4,4): the unit-scaled pair;
    # (2,2,2,2): |GL_4(F_2)| / |Sp_4(F_2)| = 20160 / 720 = 28.  Groups that
    # are not of the shape K x K carry none.
    assert len(alternating_bicharacters((2, 2))) == 1
    assert len(alternating_bicharacters((3, 3))) == 2
    assert len(alternating_bicharacters((4, 4))) == 2
    assert len(alternating_bicharacters((2, 2, 2, 2))) == 28
    assert alternating_bicharacters((2, 8)) == []
    assert alternating_bicharacters((2, 2, 4)) == []
    assert alternating_bicharacters((5,)) == []


def test_darboux_pairs_split_sizes():
    for orders in [(2, 2), (4, 4), (2, 2, 2, 2)]:
        N = max(orders)
        for E in alternating_bicharacters(orders):
            pairs = darboux_pairs(orders, E, N)
            total = 1
            for _, _, d in pairs:
                total *= d * d
            n = 1
            for d in orders:
                n *= d
            assert total == n


def test_rep_from_bicharacter_is_standard():
    field = CyclotomicField()
    G = abelian_group((4, 4))
    sub = G.subgroup(list(range(16)))
    coords = abelian_coordinates(sub)
    for E in alternating_bicharacters(coords[0]):
        V = rep_from_bicharacter(sub, coords, E, field)
        assert V.dim == 4
        assert is_nondegenerate(sub, cocycle_of_rep(V))


def test_enumeration_counts_small():
    assert len(enumerate_quadruples(1)) == 1
    assert len(enumerate_quadruples(2)) == 2
    data = enumerate_quadruples(4)
    assert len(data) == 6
    assert sorted(d.class_size for d in data) == [1, 1, 1, 1, 3, 3]
    pauli = [d for d in data if len(d.quadruple.members) == 4]
    assert len(pauli) == 2
    for d in pauli:
        assert d.quadruple.G.name == "C2xC2"
        assert d.quadruple.V.dim == 2
        assert d.ok
        assert d.certificates["minimal"]
        assert d.certificates["grouplikes"] == 4


def test_enumeration_no_dedup_flags():
    data = enumerate_quadruples(4, dedup=False)
    # C4: 2 central u's; C2xC2: 4 u's for H = {e} plus 4 for H = G
    assert len(data) == 10
    assert all(d.class_size == 1 for d in data)
    assert all(not d.deduplicated for d in data)


def test_enumeration_order_nine():
    data = enumerate_quadruples(9)
    assert len(data) == 3
    full = [d for d in data if len(d.quadruple.members) == 9]
    assert len(full) == 1
    # the two nondegenerate forms on C3 x C3 are related by an
    # automorphism of determinant 2, so they merge into one class
    assert full[0].class_size == 2
    assert full[0].certificates["minimal"]
    assert full[0].certificates["grouplikes"] == 9


def test_ambient_embedding_is_not_minimal():
    data = enumerate_quadruples(8)
    assert len(data) == 19
    cube = [d for d in data if d.quadruple.G.name == "C2xC2xC2"
            and len(d.quadruple.members) == 4]
    by_u = {d.quadruple.u in set(d.quadruple.members): d for d in cube}
    inside = [d for d in cube
              if d.quadruple.u in set(d.quadruple.members)]
    outside = [d for d in cube
               if d.quadruple.u not in set(d.quadruple.members)]
    # Klein-four data inside the cube: u inside <H> leaves the datum
    # non-minimal, u outside generates the missing factor
    assert inside and all(not d.certificates["minimal"] for d in inside)
    assert len(outside) == 1
    assert outside[0].certificates["minimal"]
    assert outside[0].class_size == 28
    assert is_minimal_datum(outside[0])
    for d in cube:
        assert d.ok
        assert d.certificates["grouplikes"] >= 2
        assert d.certificates["solvable"]


def test_transport_isomorphism_and_refusals():
    data = enumerate_quadruples(4, dedup=False)
    nontriv = [d.quadruple for d in data
               if d.quadruple.G.name == "C2xC2"
               and len(d.quadruple.members) == 4 and d.quadruple.u != 0]
    assert len(nontriv) == 3
    perm = transport_isomorphism(nontriv[0], nontriv[1])
    assert perm is not None
    G = nontriv[0].G
    assert perm[nontriv[0].u] == nontriv[1].u
    for a in range(4):
        for b in range(4):
            assert perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
    trivial_u = next(d.quadruple for d in data
                     if d.quadruple.G.name == "C2xC2"
                     and len(d.quadruple.members) == 4 and d.quadruple.u == 0)
    assert transport_isomorphism(trivial_u, nontriv[0]) is None
    c4 = [d.quadruple for d in data if d.quadruple.G.name == "C4"]
    assert transport_isomorphism(c4[0], c4[1]) is None


def test_quadruple_validation():
    field = CyclotomicField()
    G = symmetric(3)
    with pytest.raises(CatalogError):
        # u of order 2 in S3 is never central
        sub = G.subgroup([G.identity])
        from twistlab.constructions import ProjectiveRep
        V = ProjectiveRep(sub, [[[field.one()]]], field)
        u = next(g for g in range(6) if G.element_order(g) == 2)
        Quadruple(G, [G.identity], V, u)
    K = abelian_group((2, 2))
    subK = K.subgroup(list(range(4)))
    coords = abelian_coordinates(subK)
    V = rep_from_bicharacter(subK, coords,
                             alternating_bicharacters((2, 2))[0], field)
    with pytest.raises(CatalogError):
        Quadruple(K, [0, 1], V, 0)  # rep group larger than member set


def test_battery_matches_generic_engines():
    scans = finder_scan(max_order=4)
    for entry in scans:
        if not entry.cocycles or not entry.action.is_trivial():
            continue
        tw = twist_from_1cocycle(entry.cocycles[entry.classes[0][0]])
        table = AbelianTwistTable(tw.J)
        report = table.battery()
        assert report.ok, report.summary()
        H = tw.group
        r = r_matrix(tw)
        assert check_triangular(H, tw.coproduct_basis, r).ok
        assert leg_span_rank(H, r) == table.leg_rank()
        M = dual_movshev(tw)
        assert M.algebra.center_dimension() == table.center_count()
        assert count_grouplikes(tw) == table.grouplike_count()


def test_table_transform_matches_dense_sum():
    """jhat[s][t] = sum chi_s(a) chi_t(b) J_ab on every abelian finder
    twist with |H| <= 16."""
    checked = 0
    for entry in finder_scan(max_order=4):
        for data in entry.cocycles:
            J = cocycle_twist_tensor(data)
            H = J.group
            if not H.is_abelian():
                continue
            table = AbelianTwistTable(J)
            orders, dlog, _ = abelian_coordinates(H)
            N = lcm(*orders)
            digits = list(itertools.product(*(range(d) for d in orders)))

            def chi(s, a):
                return Cyc.root_of_unity(N, sum(
                    x * y * (N // d)
                    for x, y, d in zip(digits[s], dlog[a], orders)))

            for s in range(H.order):
                for t in range(H.order):
                    want = sum((chi(s, a) * chi(t, b) * v
                                for (a, b), v in J.coeffs.items()),
                               Cyc.from_int(0))
                    assert table.jhat[s][t] == want
            checked += 1
    assert checked == 11


def test_battery_rejects_bad_input():
    from twistlab.algebra import TensorElement
    field = CyclotomicField()
    with pytest.raises(CatalogError):
        AbelianTwistTable(TensorElement.basis(symmetric(3), (0, 0), field))
    C2 = make_cyclic(2)
    skew = TensorElement.basis(C2, (1, 1), field)
    table = AbelianTwistTable(skew)
    report = table.battery()
    assert not report.ok
    assert ("counit legs", "") in report.failures()


def test_finder_scan_frozen_counts():
    entries = finder_scan(max_order=8)
    got = [(e.label, len(e.cocycles), len(e.classes)) for e in entries]
    assert got == [
        ("C2 on C2, trivial", 1, 1),
        ("C3 on C3, trivial", 2, 1),
        ("C4 on C4, trivial", 2, 1),
        ("C4 on C4, inversion", 0, 0),
        ("C2xC2 on C4, inversion by the first factor", 2, 1),
        ("C2xC2 on C2xC2, trivial", 6, 1),
        ("C5 on C5, trivial", 4, 1),
        ("C6 on C6, trivial", 2, 1),
        ("C6 on C6, inversion", 0, 0),
        ("C8 on C8, trivial", 4, 1),
        ("C2xC4 on C2xC4, trivial", 8, 1),
        ("C2xC2xC2 on C2xC2xC2, trivial", 168, 1),
    ]


def test_twist_transport_exact_equality():
    for entry in finder_scan(max_order=4):
        if not entry.cocycles:
            continue
        H = cocycle_ambient_group(entry.cocycles[0])
        for rep_pos, members in entry.classes:
            J_rep = cocycle_twist_tensor(entry.cocycles[rep_pos], None, H)
            for pos, phi, alpha in members:
                astar = dual_automorphism_perm(entry.A, alpha)
                perm = transport_twist_perm(H, phi, astar)
                J_got = relabel_tensor(J_rep, perm)
                assert J_got == cocycle_twist_tensor(
                    entry.cocycles[pos], None, H)


def test_cocycle_relabeling_consistency():
    entry = next(e for e in finder_scan(max_order=4)
                 if not e.action.is_trivial() and e.cocycles)
    d1 = entry.cocycles[0]
    d2 = entry.cocycles[1]
    phi, alpha = cocycle_relabeling(d1, d2)
    G, A = entry.G, entry.A
    inv_phi = [0] * G.order
    for g, h in enumerate(phi):
        inv_phi[h] = g
    for g in range(G.order):
        assert alpha[d1.pi[inv_phi[g]]] == d2.pi[g]


def test_builtin_groups_inventory():
    names = [g.name for g in builtin_groups(8)]
    assert names == ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D3",
                     "C7", "C8", "D4", "Q8", "C2xC4", "C2xC2xC2"]
    groups = builtin_groups(12)
    orders = [g.order for g in groups]
    assert orders == sorted(orders)
    from twistlab.groups import is_isomorphic
    for i, g in enumerate(groups):
        for h in groups[i + 1:]:
            if h.order == g.order:
                assert not is_isomorphic(g, h)


def test_all_subgroups_counts():
    assert len(all_subgroups(abelian_group((2, 2)))) == 5
    assert len(all_subgroups(symmetric(3))) == 6
    # subspace counts of F_2^3: 1 + 7 + 7 + 1
    assert len(all_subgroups(abelian_group((2, 2, 2)))) == 16


def test_admissible_primes():
    assert admissible_primes(abelian_group((2, 2, 2))) == [3, 5]
    assert admissible_primes(abelian_group((3, 3))) == [7, 13]
    assert admissible_primes(make_cyclic(4)) == [5, 13]
    assert admissible_primes(make_cyclic(6)) == [7, 13]


def test_char_p_mirror_agreement():
    data = enumerate_quadruples(4)
    pauli = next(d for d in data if len(d.quadruple.members) == 4
                 and d.quadruple.u == 0)
    for p in admissible_primes(pauli.quadruple.G):
        report, mirror = char_p_mirror(pauli, p)
        assert report.ok, report.summary()
        assert mirror.certificates == pauli.certificates
    with pytest.raises(CatalogError):
        char_p_mirror(pauli, 2)
    with pytest.raises(CatalogError):
        char_p_mirror(pauli, 9)


def test_char_p_mirror_detects_disagreement():
    data = enumerate_quadruples(2)
    datum = data[0]
    datum.certificates["leg rank"] += 1
    p = admissible_primes(datum.quadruple.G)[0]
    report, _ = char_p_mirror(datum, p)
    assert not report.ok


def test_realize_rejects_bad_characteristic():
    from twistlab.scalars import PrimeField
    field = PrimeField(3, root_order=2)
    with pytest.raises(CatalogError):
        enumerate_quadruples(9, field=field)
