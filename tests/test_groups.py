from __future__ import annotations

import pytest

from twistlab.groups import (
    AbelianGroup, FiniteGroup, GroupError, PairingChar,
    action_from_generator_images, alternating4, dihedral, direct_product,
    dual_action, find_isomorphism, is_isomorphic, isomorphisms, make_cyclic,
    quaternion8, semidirect_product, symmetric, trivial_action,
)
from twistlab.scalars import Cyc, CyclotomicField
from twistlab.algebra import AbelianCharacters


def test_table_validation_catches_bad_tables():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [1, 1]])
    # a Latin square that is not associative (order 5 loop)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError):
        FiniteGroup(loop)


def test_cyclic_group_basics():
    c6 = make_cyclic(6)
    assert c6.order == 6
    assert c6.identity == 0
    assert c6.element_order(1) == 6
    assert c6.element_order(2) == 3
    assert c6.element_order(3) == 2
    assert c6.is_abelian()
    assert c6.is_solvable()
    assert c6.exponent() == 6


def test_abelian_tuples_and_invariant_factors():
    a = AbelianGroup((4, 2, 2))
    assert a.order == 16
    assert a.tuple_of(a.index_of((3, 1, 0))) == (3, 1, 0)
    assert a.add(a.index_of((3, 1, 1)), a.index_of((1, 1, 0))) == a.index_of((0, 0, 1))
    assert a.invariant_factors() == (2, 2, 4)
    assert AbelianGroup((2, 3)).invariant_factors() == (6,)
    assert AbelianGroup((6, 4)).invariant_factors() == (2, 12)
    assert a.dual_group().factors == a.factors


def test_dihedral_and_symmetric():
    d3 = dihedral(3)
    s3 = symmetric(3)
    assert d3.order == 6 and s3.order == 6
    assert not d3.is_abelian()
    assert find_isomorphism(d3, s3) is not None
    d4 = dihedral(4)
    assert sorted(d4.element_order(a) for a in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert d4.center() == [0, 2]
    # full associativity audits on the nonabelian constructors
    d4._validate()
    s3._validate()


def test_quaternion_group():
    q8 = quaternion8()
    q8._validate()
    assert q8.center() == [0, 1]
    assert sorted(q8.element_order(a) for a in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not is_isomorphic(q8, dihedral(4))


def test_s4_and_a4_derived_series():
    s4 = symmetric(4)
    a4 = alternating4()
    assert s4.order == 24 and a4.order == 12
    series = s4.derived_series()
    assert [len(x) for x in series] == [24, 12, 4, 1]
    assert s4.is_solvable() and a4.is_solvable()
    assert [len(x) for x in a4.derived_series()] == [12, 4, 1]


def _all_subgroups(G):
    """Every subgroup of G, by closing generator sets (test oracle use only)."""
    found = {tuple([G.identity])}
    frontier = [tuple([G.identity])]
    while frontier:
        nxt = []
        for sub in frontier:
            for x in range(G.order):
                if x in sub:
                    continue
                bigger = tuple(G.subgroup_generated(list(sub) + [x]))
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return [list(s) for s in found]


def _quotient_table(G, members):
    """Multiplication table of G / N for a normal subgroup N (oracle helper)."""
    nset = set(members)
    cosets = []
    seen = set()
    for a in range(G.order):
        if a in seen:
            continue
        coset = frozenset(G.mul(a, x) for x in nset)
        seen |= coset
        cosets.append(coset)
    index = {}
    for i, cs in enumerate(cosets):
        for a in cs:
            index[a] = i
    table = [[index[G.mul(next(iter(ca)), next(iter(cb)))] for cb in cosets]
             for ca in cosets]
    return FiniteGroup(table)


def _solvable_oracle(G):
    """Brute-force: G is solvable iff some normal N with abelian G/N is solvable."""
    if G.order == 1:
        return True
    for members in _all_subgroups(G):
        if len(members) == G.order:
            continue
        nset = set(members)
        if not all(G.conjugate(g, x) in nset for g in range(G.order) for x in members):
            continue
        q = _quotient_table(G, members)
        if q.is_abelian() and _solvable_oracle(G.subgroup(members)):
            return True
    return False


@pytest.mark.parametrize("maker", [
    lambda: make_cyclic(6),
    lambda: symmetric(3),
    lambda: dihedral(4),
    lambda: quaternion8(),
    lambda: alternating4(),
    lambda: symmetric(4),
    lambda: direct_product(symmetric(3), make_cyclic(2)),
])
def test_solvability_matches_normal_series_oracle(maker):
    G = maker()
    assert G.order <= 24
    assert G.is_solvable() == _solvable_oracle(G)


def test_subgroup_and_embedding():
    d4 = dihedral(4)
    members = d4.subgroup_generated([1])      # rotations
    sub = d4.subgroup(members)
    assert sub.order == 4
    assert sub.embedding == [0, 1, 2, 3]
    with pytest.raises(GroupError):
        d4.subgroup([0, 1, 4])


def test_direct_product_mixed():
    g = direct_product(symmetric(3), make_cyclic(2))
    assert g.order == 12
    g._validate()
    a = direct_product(make_cyclic(2), make_cyclic(4))
    assert isinstance(a, AbelianGroup)
    assert a.factors == (2, 4)


def test_pairing_character():
    a = AbelianGroup((2, 2))
    pc = PairingChar(a)
    assert pc.N == 2
    assert pc.is_nondegenerate()
    f = CyclotomicField()
    chars = AbelianCharacters.of_group(a, f)
    E = chars.exponents()
    assert chars.N == pc.N
    assert all(E[x][b] == pc.exponent(x, b)
               for x in range(4) for b in range(4))
    e11 = chars.powers[E[a.index_of((1, 0))][a.index_of((1, 0))]]
    assert e11 == Cyc.from_int(-1)
    assert chars.powers[E[a.index_of((1, 0))][a.index_of((0, 1))]] == \
        Cyc.from_int(1)
    # biadditivity in the first slot on the full table
    for x in range(4):
        for y in range(4):
            for b in range(4):
                lhs = pc.exponent(a.add(x, y), b)
                rhs = (pc.exponent(x, b) + pc.exponent(y, b)) % pc.N
                assert lhs == rhs
    c4 = make_cyclic(4)
    pc4 = PairingChar(c4)
    chars4 = AbelianCharacters.of_group(c4, f)
    assert chars4.powers[chars4.exponents()[1][1]] == Cyc.root_of_unity(4)
    assert pc4.is_nondegenerate()


def test_actions_and_duals():
    g = make_cyclic(2)
    a = make_cyclic(4)
    neg = tuple(a.neg(x) for x in range(4))
    act = action_from_generator_images(g, a, [1], [neg])
    assert act.act(1, 1) == 3
    assert trivial_action(g, a).is_trivial()
    dual = dual_action(act)
    # <g.b, x> = <b, g^{-1}.x> forces the dual of inversion to be inversion
    assert dual.act(1, 1) == 3
    pc = PairingChar(a)
    for b in range(4):
        for x in range(4):
            assert pc.exponent(x, dual.act(1, b)) == pc.exponent(act.act(1, x), b)


def test_semidirect_product_c2_on_c4_is_dihedral():
    g = make_cyclic(2)
    astar = make_cyclic(4)
    neg = tuple(astar.neg(x) for x in range(4))
    act = action_from_generator_images(g, astar, [1], [neg])
    h = semidirect_product(g, astar, act)
    assert h.order == 8
    h._validate()
    assert is_isomorphic(h, dihedral(4))
    # embeddings multiply the way the factors do
    assert h.mul(h.embed_A(1), h.embed_A(2)) == h.embed_A(3)
    assert h.mul(h.embed_G(1), h.embed_G(1)) == h.embed_G(0)
    b, g_ = h.parts(h.mul(h.embed_G(1), h.embed_A(1)))
    assert (b, g_) == (3, 1)   # g b g^{-1} = -b


def test_semidirect_trivial_action_is_direct():
    g = make_cyclic(3)
    astar = make_cyclic(3)
    h = semidirect_product(g, astar, trivial_action(g, astar))
    h._validate()
    assert h.is_abelian()


def test_labeled_isomorphisms_are_the_label_preserving_automorphisms():
    V = AbelianGroup((2, 2, 2))
    e1, e2, e3 = (V.index_of(t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # a plane's nonzero elements plus e3: products of its elements leave
    # the class, so generated elements need propagation's label check
    plane_and_e3 = [x in (e1, e2, V.add(e1, e2), e3) for x in range(8)]
    fixes_e1 = [x == e1 for x in range(8)]

    def dot(x, y):
        return sum(a * b for a, b in zip(V.tuple_of(x), V.tuple_of(y))) % 2

    def at_sum(x, y):
        # no generator is e1 + e2 + e3, so only the final check sees it
        return x == y == V.index_of((1, 1, 1))

    autos = list(isomorphisms(V, V))
    for labels, pair, count in ((plane_and_e3, None, 6), (None, dot, 6),
                                (fixes_e1, dot, 2), (None, at_sum, 24)):
        want = [phi for phi in autos
                if (labels is None or
                    all(labels[x] == labels[phi[x]] for x in range(8)))
                and (pair is None or
                     all(pair(x, y) == pair(phi[x], phi[y])
                         for x in range(8) for y in range(8)))]
        got = list(isomorphisms(
            V, V, labels=labels and (labels, labels),
            pair_labels=pair and (pair, pair)))
        assert sorted(got) == sorted(want) and len(got) == count


def test_isomorphism_counts():
    c4 = make_cyclic(4)
    v4 = AbelianGroup((2, 2))
    assert find_isomorphism(c4, v4) is None
    assert len(list(isomorphisms(v4, v4))) == 6          # |GL(2,2)|
    assert len(list(isomorphisms(make_cyclic(6), AbelianGroup((2, 3))))) == 2
    # |Aut| of builtin groups of orders 8, 9 and 12
    for G, n_aut in ((make_cyclic(8), 4), (AbelianGroup((2, 4)), 8),
                     (AbelianGroup((2, 2, 2)), 168), (dihedral(4), 8),
                     (quaternion8(), 24), (AbelianGroup((3, 3)), 48),
                     (alternating4(), 24), (AbelianGroup((2, 6)), 12),
                     (make_cyclic(12), 4)):
        assert len(list(isomorphisms(G, G))) == n_aut, G.name
    iso = find_isomorphism(dihedral(3), symmetric(3))
    s3 = symmetric(3)
    d3 = dihedral(3)
    for a in range(6):
        for b in range(6):
            assert iso[d3.mul(a, b)] == s3.mul(iso[a], iso[b])
