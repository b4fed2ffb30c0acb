import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import algebra
from twistlab.scalars import (Cyc, CyclotomicField, PrimeField, ScalarError,
                              is_prime)
from twistlab.groups import (abelian_group, alternating4, dihedral,
                             make_cyclic, symmetric)
from twistlab.twists import identity_twist
from twistlab.movshev import dual_movshev
from twistlab.algebra import (
    AbelianCharacters, AlgebraError, TensorElement, abelian_basis, hopf_coproduct, hopf_counit, hopf_antipode,
    regular_trace, support_subgroup, algebra_invert, left_regular_matrix,
    mat_rref, mat_rank, mat_nullspace, mat_solve, mat_inverse, mat_mul,
    mat_vec, StructureConstantAlgebra, dualize_coalgebra,
)

Q = CyclotomicField()


def rand_scalar(rng, field=Q):
    return field.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def rand_tensor(rng, group, rank, nterms, field=Q):
    coeffs = {}
    for _ in range(nterms):
        key = tuple(rng.randrange(group.order) for _ in range(rank))
        coeffs[key] = rand_scalar(rng, field)
    return TensorElement(group, rank, field, coeffs)


def test_tensor_ring_axioms():
    rng = random.Random(11)
    G = abelian_group((2, 4))
    for _ in range(25):
        a = rand_tensor(rng, G, 2, 3)
        b = rand_tensor(rng, G, 2, 3)
        c = rand_tensor(rng, G, 2, 3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        unit = TensorElement.unit(G, 2, Q)
        assert a * unit == a and unit * a == a
    assert a + (-a) == TensorElement.zero(G, 2, Q)


def test_leg_operations():
    G = make_cyclic(6)
    a = TensorElement.basis(G, (2, 5), Q)
    assert a.swap() == TensorElement.basis(G, (5, 2), Q)
    assert a.embed((1, 2), 3) == TensorElement.basis(G, (2, 5, 0), Q)
    assert a.embed((2, 3), 3) == TensorElement.basis(G, (0, 2, 5), Q)
    assert a.embed((1, 3), 3) == TensorElement.basis(G, (2, 0, 5), Q)
    assert a.coproduct_leg(0) == TensorElement.basis(G, (2, 2, 5), Q)
    assert a.counit_leg(1) == TensorElement.basis(G, (2,), Q)
    assert a.antipode_leg(0) == TensorElement.basis(G, (4, 5), Q)
    # merging legs multiplies in the group
    assert a.merge_legs(0, 1) == TensorElement.basis(G, (1,), Q)
    b = TensorElement.basis(G, (3,), Q)
    assert a.outer(b) == TensorElement.basis(G, (2, 5, 3), Q)


def test_group_hopf_axioms():
    rng = random.Random(23)
    G = symmetric(3)
    unit = TensorElement.unit(G, 1, Q)
    for _ in range(20):
        x = rand_tensor(rng, G, 1, 3)
        dx = hopf_coproduct(x)
        # counit laws
        assert dx.counit_leg(0) == x
        assert dx.counit_leg(1) == x
        # antipode laws: m(S (x) I)Delta = m(I (x) S)Delta = eps * 1
        eps = hopf_counit(x)
        assert dx.antipode_leg(0).merge_legs(0, 1) == unit.scale(eps)
        assert dx.antipode_leg(1).merge_legs(0, 1) == unit.scale(eps)
        y = rand_tensor(rng, G, 1, 3)
        # Delta and S are algebra (anti)morphisms
        assert hopf_coproduct(x * y) == dx * hopf_coproduct(y)
        assert hopf_antipode(x * y) == hopf_antipode(y) * hopf_antipode(x)


def test_regular_trace_matches_dense_matrix():
    rng = random.Random(5)
    G = symmetric(3)
    for _ in range(6):
        x = rand_tensor(rng, G, 1, 4)
        full = [(g,) for g in range(G.order)]
        mat, _ = left_regular_matrix(x, full)
        tr = Q.zero()
        for i in range(G.order):
            tr = tr + mat[i][i]
        assert tr == regular_trace(x)


def test_support_subgroup_closure():
    G = make_cyclic(12)
    t = TensorElement(G, 2, Q, {(4, 0): Q.one(), (0, 6): Q.one()})
    S = support_subgroup(t)
    # generated subgroup is <4> x <6> inside Z12 x Z12
    assert len(S) == 6
    assert (0, 0) in S and (8, 6) in S


def test_invert_known_self_inverse():
    # (1/2)(1 (x) 1 + 1 (x) u + u (x) 1 - u (x) u) squares to the identity
    G = make_cyclic(2)
    half = Q.from_fraction(Fraction(1, 2))
    r = TensorElement(G, 2, Q, {
        (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half})
    assert r * r == TensorElement.unit(G, 2, Q)
    assert algebra_invert(r) == r


def test_invert_zero_divisor_detected():
    G = make_cyclic(2)
    t = TensorElement(G, 1, Q, {(0,): Q.one(), (1,): Q.one()})
    with pytest.raises(AlgebraError):
        algebra_invert(t)
    with pytest.raises(AlgebraError):
        algebra_invert(TensorElement.zero(G, 1, Q))


def test_invert_against_dense_oracle():
    rng = random.Random(77)
    G = abelian_group((2, 3))
    unit1 = TensorElement.unit(G, 1, Q)
    checked = 0
    for _ in range(20):
        x = rand_tensor(rng, G, 1, 3)
        if not x:
            continue
        members = support_subgroup(x)
        mat, _ = left_regular_matrix(x, members)
        n = len(members)
        e_idx = members.index((G.identity,))
        rhs = [Q.zero()] * n
        rhs[e_idx] = Q.one()
        dense = mat_solve(mat, rhs, n, Q)
        if dense is None:
            with pytest.raises(AlgebraError):
                algebra_invert(x)
            continue
        inv = algebra_invert(x)
        assert x * inv == unit1 and inv * x == unit1
        expected = {members[i]: dense[i] for i in range(n) if dense[i]}
        assert inv.coeffs == expected
        checked += 1
    assert checked >= 5


def test_invert_nonabelian_support_against_dense_oracle():
    # S3 has trivial center (minimal polynomial route); D4 has a proper
    # center (character split route); both must agree with a dense solve
    rng = random.Random(9)
    for G in (symmetric(3), dihedral(4)):
        unit = TensorElement.unit(G, 1, Q)
        tab = G.table
        nonabelian_runs = 0
        for _ in range(25):
            x = rand_tensor(rng, G, 1, 3)
            if not x:
                continue
            members = support_subgroup(x)
            if any(tab[a[0]][b[0]] != tab[b[0]][a[0]]
                   for a in members for b in members):
                nonabelian_runs += 1
            mat, _ = left_regular_matrix(x, members)
            n = len(members)
            rhs = [Q.zero()] * n
            rhs[members.index((G.identity,))] = Q.one()
            dense = mat_solve(mat, rhs, n, Q)
            if dense is None:
                with pytest.raises(AlgebraError):
                    algebra_invert(x)
                continue
            inv = algebra_invert(x)
            assert x * inv == unit and inv * x == unit
            assert inv.coeffs == {members[i]: dense[i]
                                  for i in range(n) if dense[i]}
        assert nonabelian_runs >= 5


def test_right_inverse_is_two_sided_on_every_route():
    # algebra_invert checks t * inv = 1 only; inv * t = 1 is the oracle here.
    # Gauge elements x = 4e + s + 2t on a generating pair (s, t), and the
    # gauge twists Delta(x) (x^-1 (x) x^-1) built from them.
    def gauge(G, s, t):
        x = TensorElement(G, 1, Q, {(G.identity,): Q.from_int(4),
                                    (s,): Q.one(), (t,): Q.from_int(2)})
        x = x.scale(hopf_counit(x).inverse())
        x_inv = algebra_invert(x)
        return x, hopf_coproduct(x) * x_inv.outer(x_inv)

    c6, s3, d4, a4 = abelian_group((2, 3)), symmetric(3), dihedral(4), \
        alternating4()
    x_c6, j_c6 = gauge(c6, 1, 3)
    x_s3, j_s3 = gauge(s3, 3, 1)
    x_d4, j_d4 = gauge(d4, 1, 4)
    x_a4, _ = gauge(a4, 1, 4)
    for route, t in (("fourier", x_c6), ("fourier", j_c6),
                     ("central", x_d4), ("central", j_d4),
                     ("krylov", x_s3), ("krylov", j_s3), ("krylov", x_a4)):
        members = support_subgroup(t)
        if algebra._fourier_invert(t, members) is not None:
            taken = "fourier"
        elif algebra._central_split_invert(t, members) is not None:
            taken = "central"
        else:
            taken = "krylov"
        assert taken == route
        inv = algebra_invert(t)
        unit = TensorElement.unit(t.group, t.rank, Q)
        assert t * inv == unit and inv * t == unit


def test_invert_rank2_and_prime_field():
    rng = random.Random(3)
    G = make_cyclic(4)
    unit = TensorElement.unit(G, 2, Q)
    for _ in range(8):
        x = rand_tensor(rng, G, 2, 3)
        try:
            inv = algebra_invert(x)
        except AlgebraError:
            continue
        assert x * inv == unit and inv * x == unit
    F = PrimeField(7)
    t = TensorElement(G, 2, F, {(1, 0): F.from_int(2), (0, 1): F.from_int(3)})
    inv = algebra_invert(t)
    assert t * inv == TensorElement.unit(G, 2, F)


def test_matrix_routines():
    rng = random.Random(9)
    one, zero = Q.one(), Q.zero()
    a = [[one, one, zero], [zero, zero, one]]
    assert mat_rank(a, 3) == 2
    ns = mat_nullspace(a, 3, Q)
    assert len(ns) == 1
    for row in a:
        acc = zero
        for x, y in zip(row, ns[0]):
            acc = acc + x * y
        assert not acc
    for _ in range(6):
        m = [[rand_scalar(rng) for _ in range(3)] for _ in range(3)]
        if mat_rank(m, 3) < 3:
            with pytest.raises(AlgebraError):
                mat_inverse(m, Q)
            continue
        inv = mat_inverse(m, Q)
        prod = mat_mul(m, inv, Q)
        for i in range(3):
            for j in range(3):
                assert prod[i][j] == (one if i == j else zero)
        b = [rand_scalar(rng) for _ in range(3)]
        x = mat_solve(m, b, 3, Q)
        assert mat_vec(m, x, Q) == b
    # inconsistent system
    sing = [[one, one], [one, one]]
    assert mat_solve(sing, [one, zero], 2, Q) is None


def test_modular_prime_carries_the_roots():
    for n in (1, 3, 4, 8, 12, 64):
        p, w = algebra._modular_prime(n)
        assert is_prime(p) and p < 2 ** 31 and (p - 1) % n == 0
        assert pow(w, n, p) == 1
        assert all(pow(w, k, p) != 1 for k in range(1, n))


def test_modular_rank_deficit_falls_back_to_exact():
    """A rank mod p below the bound decides nothing: the exact rank is
    taken, and a row whose denominator p vanishes is dropped, not mapped."""
    p, _ = algebra._modular_prime(1)
    one, zero = Q.one(), Q.zero()
    det_p = [[Q.from_int(p), zero], [zero, one]]
    assert algebra._modular_rank(det_p, 2) == 1
    assert mat_rank(det_p, 2) == 2
    inv_p = Q.from_fraction(Fraction(1, p))
    assert algebra._modular_rank([[inv_p, one]], 1) == 0
    assert mat_rank([[inv_p, one]], 2) == 1
    dependent = [[inv_p, inv_p], [one, one]]
    assert algebra._modular_rank(dependent, 2) == 1
    assert mat_rank(dependent, 2) == 1
    # no bound at all for conductors whose lcm passes the cap (exact
    # arithmetic refuses them too) or for entries other than Cyc
    mixed = [[Cyc.root_of_unity(1024), Cyc.root_of_unity(3)]]
    assert algebra._modular_rank(mixed, 1) is None
    with pytest.raises(ScalarError):
        mat_rank(mixed, 2)
    F = PrimeField(13, 12)
    assert algebra._modular_rank([[F.one()]], 1) is None
    assert mat_rank([[F.one(), F.zero()], [F.zero(), F.zero()]], 2) == 1


@st.composite
def cyc_matrices(draw):
    """Small matrices over Q(zeta_n), n in 1, 3, 4, 8, 12; about half are
    products of two thin random factors, so rank-deficient."""
    n = draw(st.sampled_from((1, 3, 4, 8, 12)))
    term = st.builds(lambda c, k, a, b: Cyc.root_of_unity(c, k) * Fraction(a, b),
                     st.sampled_from(sorted({1, n})), st.integers(0, n - 1),
                     st.integers(-2, 2), st.integers(1, 3))
    entry = st.lists(term, max_size=2).map(
        lambda ts: sum(ts, Q.zero()))

    def matrix(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return matrix(rows, cols), cols
    k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    return mat_mul(matrix(rows, k), matrix(k, cols), Q), cols


@settings(max_examples=150, deadline=None)
@given(cyc_matrices())
def test_mat_rank_matches_exact_elimination(case):
    rows, ncols = case
    exact = len(mat_rref([list(r) for r in rows], ncols))
    assert mat_rank(rows, ncols) == exact
    # a proven upper bound that the rank attains is certified as well
    assert mat_rank(rows, ncols, exact) == exact


def test_center_dimension_certified_only_with_central_unit(monkeypatch):
    """The modular bound decides center dimension 1 only after an exact
    check that the stated unit is nonzero and central; every other case
    reaches exact elimination."""
    calls = []
    exact = algebra.mat_rref
    monkeypatch.setattr(algebra, "mat_rref",
                        lambda rows, ncols: calls.append(ncols) or
                        exact(rows, ncols))
    # M_2 as the dual of the comatrix coalgebra of size 2
    idx = {(i, j): 2 * i + j for i in range(2) for j in range(2)}
    rows = [{(idx[(i, l)], idx[(l, j)]): Q.one() for l in range(2)}
            for i in range(2) for j in range(2)]
    counit = [Q.one() if i == j else Q.zero()
              for i in range(2) for j in range(2)]
    M2 = dualize_coalgebra(rows, counit, Q)
    assert M2.center_dimension() == 1 and calls == []
    for unit in ({idx[(0, 0)]: Q.one()}, {}):   # not central; zero
        A = StructureConstantAlgebra(M2.m, unit, Q, validate=False)
        calls.clear()
        assert A.center_dimension() == 1 and calls == [4]
    # center larger than the unit's span: k[S3] falls back; the untwisted
    # k[C4]^* is commutative, so it has no commutator rows to eliminate
    calls.clear()
    assert group_algebra_structure(symmetric(3), Q).center_dimension() == 3
    assert calls == [6]
    assert dual_movshev(identity_twist(make_cyclic(4), Q)) \
        .algebra.center_dimension() == 4


def group_algebra_structure(G, field):
    one = field.one()
    m = [[{G.table[i][j]: one} for j in range(G.order)] for i in range(G.order)]
    return StructureConstantAlgebra(m, {G.identity: one}, field)


def test_structure_constants_group_algebras():
    A = group_algebra_structure(symmetric(3), Q)
    assert not A.is_commutative()
    # center of k[S3] is spanned by conjugacy class sums
    assert A.center_dimension() == 3
    # quotient by the commutator ideal is the algebra of the abelianization
    assert A.abelianization_dimension() == 2
    B = group_algebra_structure(make_cyclic(4), Q)
    assert B.is_commutative()
    assert B.center_dimension() == 4
    assert B.abelianization_dimension() == 4


def test_structure_constants_validation():
    one = Q.one()
    G = make_cyclic(3)
    m = [[{G.table[i][j]: one} for j in range(3)] for i in range(3)]
    m[1][2] = {1: one}
    with pytest.raises(AlgebraError):
        StructureConstantAlgebra(m, {0: one}, Q)
    with pytest.raises(AlgebraError):
        StructureConstantAlgebra([[{0: one}]], {}, Q)


def test_dualize_function_algebra():
    # dual of the group coalgebra Delta(g) = g (x) g is the function algebra
    G = make_cyclic(3)
    rows = [{(k, k): Q.one()} for k in range(3)]
    counit = [Q.one()] * 3
    A = dualize_coalgebra(rows, counit, Q)
    assert A.is_commutative()
    assert A.center_dimension() == 3
    e0 = {0: Q.one()}
    assert A.mult_vec(e0, e0) == e0
    assert A.mult_vec(e0, {1: Q.one()}) == {}


def test_dualize_comatrix_gives_matrix_algebra():
    # basis x_(i,j), Delta(x_(i,j)) = sum_l x_(i,l) (x) x_(l,j), eps = delta_ij
    n = 2
    idx = {(i, j): n * i + j for i in range(n) for j in range(n)}
    rows = []
    counit = []
    for i in range(n):
        for j in range(n):
            row = {}
            for l in range(n):
                row[(idx[(i, l)], idx[(l, j)])] = Q.one()
            rows.append(row)
            counit.append(Q.one() if i == j else Q.zero())
    A = dualize_coalgebra(rows, counit, Q)
    assert not A.is_commutative()
    assert A.center_dimension() == 1
    assert A.abelianization_dimension() == 0


def test_dualize_rejects_non_coassociative():
    # Delta(x0) = x0 (x) x1 fails the counit law on every side
    rows = [{(0, 1): Q.one()}, {(1, 1): Q.one()}]
    counit = [Q.one(), Q.one()]
    with pytest.raises(AlgebraError):
        dualize_coalgebra(rows, counit, Q)


def test_abelian_characters_match_dense_definition():
    """forward is sum_g chi_s(g) x_g legwise and inverse(forward(x)) is
    n^rank x, on factor coordinates and on abelian_basis coordinates."""
    rng = random.Random(23)
    A = abelian_group((2, 4))
    own = (A.factors, {g: A.tuple_of(g) for g in range(A.order)})
    basis = abelian_basis(list(range(A.order)), A.mul, A.identity)
    assert basis[0] == [4, 2]          # the order-4 factor comes first
    n = A.order
    for orders, coords in (own, basis):
        chars = AbelianCharacters(orders, coords, Q)
        N = chars.N
        assert N == 4 and chars.powers[1] == Cyc.root_of_unity(4)
        digits = list(itertools.product(*(range(d) for d in orders)))

        def chi(s, g):
            e = sum(a * b * (N // d)
                    for a, b, d in zip(digits[s], coords[g], orders))
            return Cyc.root_of_unity(N, e)

        for rank in (1, 2):
            x = {key: rand_scalar(rng)
                 for key in itertools.product(range(n), repeat=rank)}
            flat = [Q.zero()] * n ** rank
            for key, v in x.items():
                flat[sum(chars.pos[g] * n ** (rank - 1 - i)
                         for i, g in enumerate(key))] = v
            got = chars.forward(flat, rank)
            for i, s in enumerate(itertools.product(range(n), repeat=rank)):
                want = Q.zero()
                for key, v in x.items():
                    for si, g in zip(s, key):
                        v = v * chi(si, g)
                    want = want + v
                assert got[i] == want
            scale = Q.from_int(n ** rank)
            assert chars.inverse(got, rank) == [v * scale for v in flat]
    # the exponent table is the pairing of factor coordinates
    chars = AbelianCharacters.of_group(A, Q)
    E = chars.exponents()
    for s in range(n):
        for g in range(n):
            assert E[s][g] == sum(a * b * (4 // d) for a, b, d in
                                  zip(A.tuple_of(s), A.tuple_of(g),
                                      A.factors)) % 4
    # prime fields: the root table lives in F_p, a missing root raises
    F = PrimeField(17, 16)
    chars = AbelianCharacters.of_group(A, F)
    assert chars.powers[1] == F.primitive_root(4)
    vals = [F.from_int(rng.randrange(17)) for _ in range(n)]
    assert chars.inverse(chars.forward(vals)) == \
        [v * F.from_int(n) for v in vals]
    with pytest.raises(ScalarError):
        AbelianCharacters.of_group(A, PrimeField(7))
    with pytest.raises(AlgebraError):
        AbelianCharacters.of_group(symmetric(3), Q)
