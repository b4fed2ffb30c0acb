"""Twist factories and the identities that tie them together.

Two routes produce minimal twists here.  From an irreducible projective
representation V of H with dim(V)^2 = |H| and nondegenerate cocycle, the
dual of End(V) becomes a twisted coalgebra on k[H]; expanding the coproduct
of a functional lambda with <lambda, I> = 1 in its H-orbit basis yields the
twist coefficients directly.  From a bijective 1-cocycle pi: G -> A one
forms H = A* x| G ... written multiplicatively as elements bg ... and the
closed-form twist J = |A|^{-1} sum e^{(pi(g), b)} b (x) g, together with a
Heisenberg-type representation on functions on A.

verify_eq2345 checks, coefficient by coefficient, the product formula for
the twisted coproduct, the closed forms of the dual structure constants in
both the plain and rescaled bases, and the operator realization of the dual
as End(V).  The two displayed product formulas hold in the basis rescaled
by |A|; in the unscaled dual basis they carry an extra |A|^{-1}, which is
what the comparisons here use.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .scalars import CyclotomicField
from .groups import AbelianGroup, dual_action, semidirect_product
from .algebra import (
    AbelianCharacters, TensorElement, StructureConstantAlgebra, mat_mul,
    mat_solve, mat_nullspace, mat_ratio,
)
from .twists import CheckReport, verify_twist, r_matrix, verify_minimal
from .movshev import dual_movshev, equivariant_iso_report


class ConstructionError(ValueError):
    pass


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def _identity(d, field):
    return [[field.one() if i == j else field.zero() for j in range(d)]
            for i in range(d)]


# ---------------------------------------------------------------------------
# projective representations and 2-cocycles

class ProjectiveRep:
    """Matrices pi(h) with pi(x) pi(y) = c(x, y) pi(xy) and pi(e) = I.

    The cocycle c is derived from the matrix products; construction fails if
    some product is not a scalar multiple of the expected matrix.  The
    2-cocycle identity for c follows from associativity of matrix products,
    and is re-checked explicitly on groups small enough for the cubic sweep.
    """

    __slots__ = ("group", "field", "dim", "matrices", "cocycle")

    def __init__(self, group, matrices, field, validate=True):
        self.group = group
        self.field = field
        self.matrices = matrices
        self.dim = len(matrices[0])
        n = group.order
        if len(matrices) != n:
            raise ConstructionError("need one matrix per group element")
        ident = _identity(self.dim, field)
        if matrices[group.identity] != ident:
            raise ConstructionError("identity element must map to the "
                                    "identity matrix")
        c = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                prod = mat_mul(matrices[x], matrices[y], field)
                ratio = mat_ratio(prod, matrices[group.table[x][y]], field)
                if ratio is None or not ratio:
                    raise ConstructionError(
                        f"products at ({group.labels[x]}, {group.labels[y]}) "
                        f"do not close projectively")
        # a nonzero ratio at every pair also proves each matrix invertible
                c[x][y] = ratio
        self.cocycle = c
        if validate and n <= 16:
            _check_cocycle_identity(group, c)

    def cocycle_value(self, x, y):
        return self.cocycle[x][y]


def _check_cocycle_identity(group, c):
    n = group.order
    for x in range(n):
        for y in range(n):
            xy = group.table[x][y]
            for z in range(n):
                if c[x][y] * c[xy][z] != c[y][z] * c[x][group.table[y][z]]:
                    raise ConstructionError(
                        f"2-cocycle identity fails at ({group.labels[x]}, "
                        f"{group.labels[y]}, {group.labels[z]})")


class Cocycle2:
    """A normalized 2-cocycle on a finite group with nonzero scalar values."""

    __slots__ = ("group", "field", "values")

    def __init__(self, group, field, values, validate=True):
        self.group = group
        self.field = field
        self.values = values
        if validate:
            n = group.order
            e = group.identity
            one = field.one()
            for g in range(n):
                if values[e][g] != one or values[g][e] != one:
                    raise ConstructionError("cocycle is not normalized at "
                                            "the identity")
                if any(not v for v in values[g]):
                    raise ConstructionError("cocycle values must be nonzero")
            _check_cocycle_identity(group, values)

    @classmethod
    def from_function(cls, group, field, fn, validate=True):
        values = [[fn(g, h) for h in range(group.order)]
                  for g in range(group.order)]
        return cls(group, field, values, validate=validate)


def cocycle_of_rep(rep):
    """The derived 2-cocycle of a projective representation."""
    return Cocycle2(rep.group, rep.field, rep.cocycle, validate=False)


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
    alg.validate(full_assoc=True)
    return alg


def is_nondegenerate(group, c):
    """Whether the twisted group algebra of c is simple (center dim 1).

    For abelian groups the answer is cross-checked against perfectness of
    the alternating bicharacter b(g,h) = c(g,h)/c(h,g); any disagreement is
    a hard error.
    """
    alg = twisted_group_algebra(group, c)
    simple = alg.center_dimension() == 1
    if isinstance(group, AbelianGroup):
        # scalars compare and hash by value, not by printed conductor
        n = group.order
        rows = {tuple(c.values[g][h] * c.values[h][g].inverse()
                      for h in range(n)) for g in range(n)}
        perfect = len(rows) == n
        if perfect != simple:
            raise ConstructionError(
                "bicharacter perfectness disagrees with center dimension")
    return simple


def lift_projective(group, field, class_map):
    """A ProjectiveRep from matrices given only up to scalar.

    The representative at the identity is rescaled to the identity matrix;
    all other representatives are taken as supplied.  Determinants are not
    normalized: every property used downstream is invariant under scalar
    rescaling of individual representatives.
    """
    e = group.identity
    ident = _identity(len(class_map[0]), field)
    ratio = mat_ratio(class_map[e], ident, field)
    if ratio is None or not ratio:
        raise ConstructionError("identity class is not scalar")
    matrices = list(class_map)
    matrices[e] = ident
    return ProjectiveRep(group, matrices, field)


# ---------------------------------------------------------------------------
# twists from projective representations

def _orbit_functionals(rep, L):
    """Coefficient matrices of a.lambda for lambda(M) = sum L[i][j] M[i][j].

    The dual conjugation action (a.lambda)(M) = lambda(pi(a)^{-1} M pi(a))
    has coefficient matrix pi(a)^{-T} L pi(a)^T.
    """
    field = rep.field
    out = []
    for a in range(rep.group.order):
        pa = rep.matrices[a]
        inv = mat_solve(pa, _identity(rep.dim, field), rep.dim, field)
        # columns of the inverse are its transpose rows
        out.append(mat_mul(mat_mul(inv, L, field), _transpose(pa), field))
    return out


def _lambda_candidates(d, field, seed):
    for i in range(d):
        L = [[field.zero()] * d for _ in range(d)]
        L[i][i] = field.one()
        yield L
    rng = random.Random(seed)
    while True:
        yield [[field.from_int(rng.randint(-2, 2)) for _ in range(d)]
               for _ in range(d)]


def twist_from_rep(rep, seed=0, with_images=False):
    """A verified twist on k[H] from a projective rep with dim^2 = |H|.

    Searches for a functional lambda with <lambda, I> = 1 whose H-orbit is a
    basis of End(V)*, expands the coproduct of lambda (dual to matrix
    multiplication) in that basis, and reads the coefficients off as the
    twist.  Deterministic for a fixed seed; gives up after 100 candidates.

    With with_images=True also returns the canonical isomorphism images
    T(Y_a) in End(V) (the dual basis of the orbit), which intertwine left
    translation with conjugation.
    """
    field = rep.field
    H = rep.group
    n, d = H.order, rep.dim
    if d * d != n:
        raise ConstructionError(f"need dim^2 = |H|, got {d}^2 != {n}")
    if not is_nondegenerate(H, cocycle_of_rep(rep)):
        raise ConstructionError("the representation cocycle is degenerate")
    for L in itertools.islice(_lambda_candidates(d, field, seed), 100):
        tr = field.zero()
        for i in range(d):
            tr = tr + L[i][i]
        if not tr:
            continue
        tri = tr.inverse()
        L = [[v * tri for v in row] for row in L]
        lines = _orbit_functionals(rep, L)
        P = [[lines[a][i][j] for i in range(d) for j in range(d)]
             for a in range(n)]
        cols = mat_solve(P, _identity(n, field), n, field)
        if cols is None:
            continue
        p_inv = [[cols[j][i] for j in range(n)] for i in range(n)]
        # D[(ij)][(kl)] = lambda(E_ij E_kl) = [j == k] L[i][l]
        D = [[field.zero()] * n for _ in range(n)]
        for i in range(d):
            for j in range(d):
                for l in range(d):
                    D[i * d + j][j * d + l] = L[i][l]
        gamma = mat_mul(mat_mul(_transpose(p_inv), D, field), p_inv, field)
        coeffs = {}
        for a in range(n):
            for b in range(n):
                if gamma[a][b]:
                    coeffs[(a, b)] = gamma[a][b]
        twist = verify_twist(TensorElement(H, 2, field, coeffs, prune=False))
        if not with_images:
            return twist
        images = [[[p_inv[i * d + j][a] for j in range(d)] for i in range(d)]
                  for a in range(n)]
        return twist, images
    raise ConstructionError("no orbit-basis functional found in 100 "
                            "candidates")


def compose_end_images(images_a, images_b, field):
    """Dict-vector images of the map sending Y_a of one dual algebra to the
    element of the other with the same End(V) realization."""
    d = len(images_a[0])
    n = len(images_a)
    rows = [[images_b[x][i][j] for x in range(n)]
            for i in range(d) for j in range(d)]
    rhs = [[images_a[a][i][j] for i in range(d) for j in range(d)]
           for a in range(n)]
    cols = mat_solve(rows, rhs, n, field)
    if cols is None:
        raise ConstructionError("images do not span the same algebra")
    out = []
    for a in range(n):
        out.append({x: cols[a][x] for x in range(n) if cols[a][x]})
    return out


# ---------------------------------------------------------------------------
# bijective 1-cocycles

class Bijective1Cocycle:
    """pi: G -> A bijective with pi(g g') = pi(g) + g.pi(g')."""

    __slots__ = ("G", "A", "action", "pi")

    def __init__(self, G, A, action, pi, validate=True):
        self.G = G
        self.A = A
        self.action = action
        self.pi = tuple(pi)
        if validate:
            if G.order != A.order:
                raise ConstructionError(
                    f"|G| = {G.order} and |A| = {A.order} differ")
            if sorted(self.pi) != list(range(A.order)):
                raise ConstructionError("pi is not a bijection")
            if not check_bijective_1cocycle(self):
                raise ConstructionError("pi violates the 1-cocycle condition")


def check_bijective_1cocycle(data):
    """Exhaustive check of pi(g g') = pi(g) + g.pi(g')."""
    G, A, action, pi = data.G, data.A, data.action, data.pi
    for g in range(G.order):
        for g2 in range(G.order):
            if pi[G.table[g][g2]] != A.add(pi[g], action.act(g, pi[g2])):
                return False
    return True


def find_bijective_1cocycles(G, A, action):
    """All bijective 1-cocycles G -> A, by brute force over bijections.

    pi(e) = 0 is forced, so only the (|G| - 1)! bijections fixing that value
    are enumerated; feasible for |G| <= 8.
    """
    if G.order != A.order:
        raise ConstructionError(f"|G| = {G.order} and |A| = {A.order} differ")
    if G.order > 8:
        raise ConstructionError("brute-force search is capped at |G| = 8")
    n = G.order
    g_rest = [g for g in range(n) if g != G.identity]
    a_rest = [a for a in range(n) if a != A.identity]
    found = []
    table = G.table
    for perm in itertools.permutations(a_rest):
        pi = [0] * n
        pi[G.identity] = A.identity
        for g, a in zip(g_rest, perm):
            pi[g] = a
        ok = True
        for g in range(n):
            row = table[g]
            act = action.perms[g]
            pg = pi[g]
            for g2 in range(n):
                if pi[row[g2]] != A.add(pg, act[pi[g2]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(Bijective1Cocycle(G, A, action, pi, validate=False))
    return found


def cocycle_ambient_group(data):
    """H = A* x| G containing the closed-form twist, with G acting on A*
    through the dual of the given action."""
    dual = dual_action(data.action)
    return semidirect_product(data.G, dual.A, dual)


def cocycle_twist_tensor(data, field=None, H=None):
    """The raw tensor |A|^{-1} sum e^{(pi(g), b)} b (x) g on k[H], unverified."""
    field = field or CyclotomicField()
    H = H or cocycle_ambient_group(data)
    G, A = data.G, data.A
    nG = G.order
    chars = AbelianCharacters.of_group(A, field)
    E, powers = chars.exponents(), chars.powers
    inv_A = field.from_fraction(Fraction(1, A.order))
    coeffs = {}
    for g in range(nG):
        pg = data.pi[g]
        for b in range(A.order):
            val = powers[E[pg][b]] * inv_A
            coeffs[(b * nG + G.identity, g)] = val
    return TensorElement(H, 2, field, coeffs, prune=False)


def twist_from_1cocycle(data, field=None, H=None):
    """The closed-form twist |A|^{-1} sum e^{(pi(g), b)} b (x) g on k[H].

    The result is verified as a twist and checked minimal (the legs of
    J21^{-1} J span all of k[H]).
    """
    field = field or CyclotomicField()
    H = H or cocycle_ambient_group(data)
    twist = verify_twist(cocycle_twist_tensor(data, field, H))
    r = r_matrix(twist)
    if not verify_minimal(H, r):
        raise ConstructionError("closed-form twist failed the minimality "
                                "check")
    return twist


def heisenberg_rep(data, field=None, H=None):
    """The representation of H = A* x| G on functions on A.

    phi(b) delta_a = e^{-(a,b)} delta_a and phi(g) delta_a = delta_{g.a +
    pi(g)}, multiplied as phi(bg) = phi(b) phi(g).  The result is verified
    projective and irreducible (trivial commutant on a generating set).
    """
    field = field or CyclotomicField()
    H = H or cocycle_ambient_group(data)
    G, A = data.G, data.A
    nG, dA = G.order, A.order
    chars = AbelianCharacters.of_group(A, field)
    E, powers = chars.exponents(), chars.powers
    zero = field.zero()
    mats = []
    for b in range(dA):
        for g in range(nG):
            mat = [[zero] * dA for _ in range(dA)]
            for a in range(dA):
                tgt = A.add(data.action.act(g, a), data.pi[g])
                mat[tgt][a] = powers[-E[tgt][b] % chars.N]
            mats.append(mat)
    rep = ProjectiveRep(H, mats, field)
    if commutant_dimension(rep) != 1:
        raise ConstructionError("representation is reducible")
    return rep


def commutant_dimension(rep):
    """Dimension of {X : X M_h = M_h X for generators h}, exactly."""
    d = rep.dim
    field = rep.field
    rows = []
    for h in rep.group.generating_sequence():
        m = rep.matrices[h]
        for i in range(d):
            for j in range(d):
                row = [field.zero()] * (d * d)
                for k in range(d):
                    row[i * d + k] = row[i * d + k] + m[k][j]
                    row[k * d + j] = row[k * d + j] - m[i][k]
                rows.append(row)
    return len(mat_nullspace(rows, d * d, field))


# ---------------------------------------------------------------------------
# the product formulas tying the cocycle twist to End(V)

def cocycle_end_images(data, field=None):
    """The canonical images of the dual basis in End(V) for a 1-cocycle
    twist: Y_{bg} goes to |A|^{-1} e^{-(pi(g), b)} [delta_a -> e^{(a, b)}
    delta_{pi(g)}]."""
    field = field or CyclotomicField()
    G, A = data.G, data.A
    nG, dA = G.order, A.order
    chars = AbelianCharacters.of_group(A, field)
    E, powers = chars.exponents(), chars.powers
    inv_A = field.from_fraction(Fraction(1, dA))
    zero = field.zero()
    pi = data.pi
    images = []
    for b in range(dA):
        for g in range(nG):
            mat = [[zero] * dA for _ in range(dA)]
            lead = powers[-E[pi[g]][b] % chars.N] * inv_A
            for a in range(dA):
                mat[pi[g]][a] = lead * powers[E[a][b]]
            images.append(mat)
    return images


def verify_eq2345(data, field=None):
    """Exact check of the four identities attached to a 1-cocycle twist.

    (1) the twisted coproduct of bg is |A|^{-1} sum e^{(pi(g'), b')}
        b(g.b')g (x) bgg';
    (2) dual products: Y_{b2 g2} Y_{b1 g1} = |A|^{-1}
        e^{(pi(g1) - pi(g2), b2 - b1)} Y_{b1 g2};
    (3) the same in the rescaled basis Z_{bg} = e^{(pi(g), b)} Y_{bg}:
        Z_{b2 g2} Z_{b1 g1} = |A|^{-1} e^{(pi(g1), b2)} Z_{b1 g2};
    (4) sending Y_{bg} to |A|^{-1} e^{-(pi(g), b)} [delta_a ->
        e^{(a, b)} delta_{pi(g)}] is an H-equivariant algebra isomorphism
        onto End(V) for the Heisenberg-type representation.
    """
    field = field or CyclotomicField()
    H = cocycle_ambient_group(data)
    G, A = data.G, data.A
    nG, dA = G.order, A.order
    n = H.order
    chars = AbelianCharacters.of_group(A, field)
    E, powers = chars.exponents(), chars.powers
    dualact = H.action
    twist = twist_from_1cocycle(data, field, H)
    rep = heisenberg_rep(data, field, H)
    M = dual_movshev(twist)
    inv_A = field.from_fraction(Fraction(1, dA))
    zero = field.zero()
    pi = data.pi
    report = CheckReport(f"product formulas for the twist on {H.name}")

    def e_val(a_idx, b_idx):
        return powers[E[a_idx][b_idx]]

    ok, witness = True, ""
    for b in range(dA):
        for g in range(nG):
            want = {}
            for b2 in range(dA):
                for g2 in range(nG):
                    leg1 = A.add(b, dualact.act(g, b2)) * nG + g
                    leg2 = b * nG + G.table[g][g2]
                    want[(leg1, leg2)] = e_val(pi[g2], b2) * inv_A
            got = M.rows[b * nG + g]
            if got != TensorElement(H, 2, field, want, prune=False):
                ok = False
                witness = f"at {H.labels[b * nG + g]}"
                break
        if not ok:
            break
    report.add("coproduct product formula", ok, witness)

    ok, witness = True, ""
    for x2 in range(n):
        b2, g2 = divmod(x2, nG)
        for x1 in range(n):
            b1, g1 = divmod(x1, nG)
            a_diff = A.add(pi[g1], A.neg(pi[g2]))
            b_diff = A.add(b2, A.neg(b1))
            want = {b1 * nG + g2: e_val(a_diff, b_diff) * inv_A}
            if M.algebra.m[x2][x1] != want:
                ok = False
                witness = f"at ({H.labels[x2]}, {H.labels[x1]})"
                break
        if not ok:
            break
    report.add("dual product formula", ok, witness)

    scale = [e_val(pi[g], b) for b in range(dA) for g in range(nG)]
    ok, witness = True, ""
    for x2 in range(n):
        b2, g2 = divmod(x2, nG)
        for x1 in range(n):
            b1, g1 = divmod(x1, nG)
            tgt = b1 * nG + g2
            mval = M.algebra.m[x2][x1].get(tgt, zero)
            got = scale[x2] * scale[x1] * mval
            if got != e_val(pi[g1], b2) * inv_A * scale[tgt]:
                ok = False
                witness = f"at ({H.labels[x2]}, {H.labels[x1]})"
                break
        if not ok:
            break
    report.add("rescaled product formula", ok, witness)

    sub = equivariant_iso_report(M, rep, cocycle_end_images(data, field))
    for name, ok, wit in sub.checks:
        report.add(f"End(V) model: {name}", ok, wit)
    return report
