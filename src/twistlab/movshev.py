"""The coalgebra attached to a twist, its dual algebra, and what they certify.

A twist J on k[H] makes k[H] a coalgebra with coproduct D(x) = (x (x) x) J.
The dual is an |H|-dimensional algebra B with basis {Y_x}; H acts on it by
translating indices, and for minimal twists B is a matrix algebra.  This
module builds B, certifies simplicity and the regular-character property,
counts grouplikes of twisted group algebras, trivializes symmetric twists
over abelian groups, and matches B against projective representations by
H-equivariant algebra isomorphisms.

All spectral work is done through exact character arithmetic: abelian
characters and their transforms (algebra.AbelianCharacters), and k-th
roots extracted in closed form (roots of unity, rationals, or quadratic
cyclotomic fields).  When a root does not exist over the working field the
routines raise rather than approximate.
"""
from __future__ import annotations

from fractions import Fraction

from .scalars import Cyc, Fp, euler_phi, exact_root, divisors, factorize
from .groups import AbelianGroup
from .algebra import (
    AbelianCharacters, AlgebraError, TensorElement, algebra_invert,
    hopf_coproduct, hopf_counit, dualize_coalgebra, mat_rank, mat_mul,
    mat_inverse, mat_ratio, vec_ratio,
)
from .twists import CheckReport


class MovshevError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the twisted coalgebra and its dual

def build_BJ(twist):
    """Coproduct rows D(x) = (x (x) x) J and the all-ones counit."""
    group, field = twist.group, twist.field
    rows = []
    for x in range(group.order):
        xx = TensorElement.basis(group, (x, x), field)
        rows.append(xx * twist.J)
    counit = [field.one()] * group.order
    return rows, counit


class MovshevAlgebra:
    """Dual algebra of the twisted coalgebra, with the translation H-action."""

    __slots__ = ("group", "field", "algebra", "rows")

    def __init__(self, group, field, algebra, rows):
        self.group = group
        self.field = field
        self.algebra = algebra
        self.rows = rows

    @property
    def dim(self):
        return self.algebra.dim

    def act_index(self, h, x):
        return self.group.table[h][x]

    def action_matrix(self, h):
        n = self.group.order
        zero, one = self.field.zero(), self.field.one()
        mat = [[zero] * n for _ in range(n)]
        for x in range(n):
            mat[self.group.table[h][x]][x] = one
        return mat


def dual_movshev(twist, validate=False):
    """B = (k[H], D)^* with basis {Y_x}; H acts by h.Y_x = Y_{hx}.

    The action is verified to consist of algebra automorphisms.  Full
    associativity validation (equivalent to coassociativity of D, hence to
    the twist axioms) is optional since the twist is already verified.
    """
    group, field = twist.group, twist.field
    rows, counit = build_BJ(twist)
    labels = [f"Y_{group.labels[x]}" for x in range(group.order)]
    alg = dualize_coalgebra(rows, counit, field, labels=labels,
                            validate=validate, assoc_limit=group.order)
    table = group.table
    m = alg.m
    for h in range(group.order):
        row = table[h]
        for a in range(group.order):
            for b in range(group.order):
                moved = {row[c]: v for c, v in m[a][b].items()}
                if m[row[a]][row[b]] != moved:
                    raise MovshevError(
                        f"translation by {group.labels[h]} is not an "
                        f"algebra automorphism")
    return MovshevAlgebra(group, field, alg, rows)


def certify_simple(M):
    """Center dimension 1 and square dimension: the marks of a matrix algebra."""
    report = CheckReport(f"simplicity of the dual algebra over {M.group.name}")
    center = M.algebra.center_dimension()
    report.add("center dimension 1", center == 1, f"center dimension {center}")
    root = exact_root(M.dim, 2)
    report.add("dimension is a perfect square", root is not None,
               f"dimension {M.dim}")
    return report


def regular_character_report(group, matrices, field):
    """Traces must be |G| at the identity and 0 elsewhere."""
    report = CheckReport(f"regular character over {group.name}")
    n = len(matrices[0])
    for g in range(group.order):
        tr = field.zero()
        for i in range(n):
            tr = tr + matrices[g][i][i]
        want = field.from_int(group.order) if g == group.identity \
            else field.zero()
        report.add(f"trace at {group.labels[g]}", tr == want,
                   f"trace {tr}, expected {want}")
    return report


def certify_regular_action(M):
    """Character of the translation action on the dual algebra."""
    report = CheckReport(f"regular action over {M.group.name}")
    table = M.group.table
    for h in range(M.group.order):
        fixed = sum(1 for x in range(M.group.order) if table[h][x] == x)
        want = M.group.order if h == M.group.identity else 0
        report.add(f"trace at {M.group.labels[h]}", fixed == want,
                   f"{fixed} fixed points, expected {want}")
    return report


def count_grouplikes(twist):
    """Number of grouplikes of the twisted Hopf algebra k[G]^J.

    Equals the number of one-dimensional representations of the dual
    algebra of (k[G], Delta_J), i.e. the dimension of its maximal
    commutative quotient.
    """
    group, field = twist.group, twist.field
    rows = [twist.coproduct_basis(g) for g in range(group.order)]
    counit = [field.one()] * group.order
    alg = dualize_coalgebra(rows, counit, field, validate=False)
    return alg.abelianization_dimension()


# ---------------------------------------------------------------------------
# exact k-th roots

def _rational_kth_roots(fr, k):
    fr = Fraction(fr)
    if fr == 0:
        return [Fraction(0)]
    num, den = fr.numerator, fr.denominator
    rd = exact_root(den, k)
    if rd is None:
        return []
    if num < 0 and k % 2 == 0:
        return []
    rn = exact_root(num, k)
    if rn is None:
        return []
    base = Fraction(rn, rd)
    if k % 2 == 0:
        return [base, -base]
    return [base]


def rational_poly_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients.

    coeffs[i] is the coefficient of T^i.
    """
    from math import gcd
    den = 1
    for c in coeffs:
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints and ints[0] == 0:
            ints.pop(0)
    if not ints:
        return roots
    lead, const = abs(ints[-1]), abs(ints[0])
    for p in divisors(const):
        for q in divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def rational_sqrt_cyclotomic(fr):
    """An exact square root of a rational number in a cyclotomic field.

    The squarefree part is handled prime by prime: sqrt(2) = z8 + z8^7 and
    odd sqrt(p) comes from the quadratic Gauss sum (its square is +p or -p
    according to p mod 4).  The result is verified by squaring.
    """
    fr = Fraction(fr)
    if fr == 0:
        return Cyc.from_int(0)
    sign = 1 if fr > 0 else -1
    scaled = abs(fr.numerator) * fr.denominator   # fr = scaled / den^2 * sign
    root = Cyc.from_fraction(Fraction(1, fr.denominator))
    m = 1
    for p, e in factorize(scaled).items():
        root = root * (p ** (e // 2))
        if e % 2:
            m *= p
    for p in factorize(m):
        if p == 2:
            z8 = Cyc.root_of_unity(8)
            root = root * (z8 + z8 ** 7)
        else:
            gauss = Cyc.from_int(0)
            for a in range(1, p):
                ls = pow(a, (p - 1) // 2, p)
                term = Cyc.root_of_unity(p, a)
                gauss = gauss + (term if ls == 1 else -term)
            root = root * gauss
            if p % 4 == 3:
                root = root * (-Cyc.root_of_unity(4))
    if sign < 0:
        root = root * Cyc.root_of_unity(4)
    if root * root != Cyc.from_fraction(fr):
        raise AlgebraError("square root construction failed verification")
    return root


def _root_of_unity_kth_root(v, k):
    """k-th root when v is a root of unity, via conductor promotion."""
    one = Cyc.from_int(1)
    order = None
    for m in sorted(divisors(2 * v.n)):
        if v ** m == one:
            order = m
            break
    if order is None:
        return None
    if order == 1:
        return one
    zeta = Cyc.root_of_unity(order)
    power = one
    for j in range(order):
        if power == v:
            return Cyc.root_of_unity(order * k, j)
        power = power * zeta
    return None


def _quadratic_field_kth_root(v, k):
    """k-th root inside Q(zeta_N) with phi(N) = 2, by trace and norm.

    Writes t + conj(t) = T and t conj(t) = M; then M^k = Norm(v) pins M to a
    rational k-th root, the Lucas-style recursion p_(j+1) = T p_j - M p_(j-1)
    turns t^k + conj(t)^k = Tr(v) into a rational polynomial in T, and t is
    recovered from the quadratic it satisfies.
    """
    N = v.n
    conj_exp = next(c for c in range(2, N) if _coprime(c, N))
    vb = v.galois(conj_exp)
    tr_v = v + vb
    nm_v = v * vb
    if not tr_v.is_rational() or not nm_v.is_rational():
        return None
    tr_v, nm_v = tr_v.as_fraction(), nm_v.as_fraction()
    # the standard square root of the field: w^2 = disc
    if N == 3:
        w = Cyc.root_of_unity(3) * 2 + 1        # w^2 = -3
        disc = Fraction(-3)
    elif N == 4:
        w = Cyc.root_of_unity(4)                # w^2 = -1
        disc = Fraction(-1)
    else:
        return None
    for M in _rational_kth_roots(nm_v, k):
        # p_j(T) = t^j + conj(t)^j as a polynomial in T
        p_prev = [Fraction(2)]
        p_cur = [Fraction(0), Fraction(1)]
        for _ in range(k - 1):
            shifted = [Fraction(0)] + p_cur
            nxt = [a - M * b for a, b in
                   zip(shifted + [Fraction(0)] * 2, p_prev + [Fraction(0)] * 3)]
            while nxt and nxt[-1] == 0:
                nxt.pop()
            p_prev, p_cur = p_cur, nxt
        target = list(p_cur)
        target[0] -= tr_v
        for T in rational_poly_roots(target):
            D = T * T - 4 * M
            deltas = []
            for s in _rational_kth_roots(D, 2):
                deltas.append(Cyc.from_fraction(s))
            for s in _rational_kth_roots(D / disc, 2):
                deltas.append(w * Cyc.from_fraction(s))
            for delta in deltas:
                t = (Cyc.from_fraction(T) + delta) * Fraction(1, 2)
                if t ** k == v:
                    return t
    return None


def _coprime(a, b):
    from math import gcd
    return gcd(a, b) == 1


def kth_root_scalar(v, k, field):
    """Some t with t^k = v, exactly, or None.

    Over prime fields the root is found by exhaustion.  Over cyclotomic
    fields three exact routes are tried: v a root of unity (promote the
    conductor), v rational (integer root extraction, with a sign fix by
    zeta_2k for even k), and v in a quadratic cyclotomic field (trace/norm
    descent).
    """
    if k == 1:
        return v
    if field.characteristic:
        p = field.characteristic
        for t in range(p):
            if Fp(p, t) ** k == v:
                return Fp(p, t)
        return None
    if not v:
        return field.zero()
    root = _root_of_unity_kth_root(v, k)
    if root is not None:
        return root
    if v.is_rational():
        fr = v.as_fraction()
        roots = _rational_kth_roots(fr, k)
        if roots:
            return Cyc.from_fraction(roots[0])
        if k % 2 == 0 and fr < 0:
            roots = _rational_kth_roots(-fr, k)
            if roots:
                return Cyc.from_fraction(roots[0]) * Cyc.root_of_unity(2 * k)
        if k % 2 == 0:
            # square roots of rationals always exist in a cyclotomic field
            half = rational_sqrt_cyclotomic(fr)
            if k == 2:
                return half
            root = kth_root_scalar(half, k // 2, field)
            if root is not None:
                return root
    if euler_phi(v.n) == 2:
        return _quadratic_field_kth_root(v, k)
    return None


# ---------------------------------------------------------------------------
# character cocycle splitting

def solve_character_cocycle(group, field, q):
    """Values t with t(0) = 1 and t(i + j) = t(i) t(j) q(i, j) along a
    spanning set, or None when a required root does not exist.

    Characters of the AbelianGroup group carry its element indices (see
    AbelianCharacters.of_group), so index addition is group addition; q
    maps a pair of character indices to a nonzero scalar.  The t values on
    each cyclic factor are pinned by closing the cycle: t(gamma)^d multiplied
    by the telescoping q-product must be 1, so t(gamma) is a d-th root of an
    explicit scalar (any choice differs by a character and is equally good).
    Mixed indices are filled in by splitting off the first nonzero digit.
    Callers must verify the assembled object; consistency of q is not
    assumed.
    """
    n = group.order
    t = {group.identity: field.one()}
    m = len(group.factors)
    for i, d in enumerate(group.factors):
        gen = group.index_of(tuple(1 if j == i else 0 for j in range(m)))
        prod = field.one()
        power = gen
        for _ in range(d - 2):
            prod = prod * q(gen, power)
            power = group.add(gen, power)
        prod = prod * q(gen, power)  # closes the cycle at gen^(d-1)
        if not prod:
            return None
        root = kth_root_scalar(prod.inverse(), d, field)
        if root is None:
            return None
        t[gen] = root
        power = gen
        for _ in range(d - 2):
            t[group.add(gen, power)] = t[gen] * t[power] * q(gen, power)
            power = group.add(gen, power)
    def fill(idx):
        got = t.get(idx)
        if got is not None:
            return got
        tt = group.tuple_of(idx)
        i = next(j for j, a in enumerate(tt) if a)
        head = group.index_of(tuple(a if j == i else 0
                                    for j, a in enumerate(tt)))
        tail = group.index_of(tuple(a if j > i else 0
                                    for j, a in enumerate(tt)))
        val = t[head] * fill(tail) * q(head, tail)
        t[idx] = val
        return val
    return [fill(idx) for idx in range(n)]


def trivialize_symmetric_twist(twist):
    """Invertible x with Delta(x)(x^{-1} (x) x^{-1}) = J, for symmetric J.

    Works over abelian base groups: the character transform turns J into a
    symmetric 2-cocycle on the character group, which is split by telescoping
    along cyclic factors with exact d-th roots.  The result is verified
    against J before returning; any failure raises.
    """
    group, field = twist.group, twist.field
    if not twist.is_symmetric():
        raise MovshevError("twist is not symmetric")
    if not isinstance(group, AbelianGroup):
        raise MovshevError(
            "trivialization is supported over abelian base groups only")
    chars = AbelianCharacters.of_group(group, field)
    n = group.order
    # jhat[i * n + j] = (chi_i (x) chi_j)(J)
    vals = [field.zero()] * (n * n)
    for (a, b), v in twist.J.coeffs.items():
        vals[a * n + b] = v
    jhat = chars.forward(vals, rank=2)
    t = solve_character_cocycle(group, field, lambda i, j: jhat[i * n + j])
    if t is None:
        raise MovshevError(
            "a required root does not exist over the working field")
    inv_n = field.from_fraction(Fraction(1, n))
    x = TensorElement(group, 1, field,
                      {(g,): v * inv_n for g, v in enumerate(chars.inverse(t))
                       if v}, prune=False)
    try:
        x_inv = algebra_invert(x)
    except AlgebraError as exc:
        raise MovshevError(f"candidate trivializer is not invertible: {exc}")
    if hopf_coproduct(x) * x_inv.outer(x_inv) != twist.J:
        raise MovshevError(
            "trivialization failed verification; input is not a symmetric "
            "twist over this field")
    return x


# ---------------------------------------------------------------------------
# equivariant matching against projective representations

def equivariant_iso_report(M, rep, images):
    """Certify images: Y_x -> End(V) as a unital H-equivariant algebra iso.

    images[x] is a dim x dim matrix over the field.  Checks: linearity data
    has full rank (bijection), unit goes to the identity, multiplicativity
    on all basis pairs, and equivariance against conjugation by the lifted
    matrices of rep.
    """
    group, field = M.group, M.field
    n = group.order
    d = rep.dim
    report = CheckReport(
        f"equivariant isomorphism onto End(V), dim V = {d}")
    report.add("dimension match", d * d == n,
               f"|H| = {n}, dim End(V) = {d * d}")
    if d * d != n:
        return report
    flat = [[images[x][i][j] for i in range(d) for j in range(d)]
            for x in range(n)]
    report.add("linear bijection", mat_rank(flat, d * d) == n,
               "images do not span End(V)")
    unit_img = [[field.zero()] * d for _ in range(d)]
    for x, v in M.algebra.unit.items():
        for i in range(d):
            for j in range(d):
                unit_img[i][j] = unit_img[i][j] + v * images[x][i][j]
    ident = [[field.one() if i == j else field.zero() for j in range(d)]
             for i in range(d)]
    report.add("unital", unit_img == ident, "unit does not map to identity")
    mult_ok, witness = True, ""
    for a in range(n):
        for b in range(n):
            prod = mat_mul(images[a], images[b], field)
            want = [[field.zero()] * d for _ in range(d)]
            for c, v in M.algebra.m[a][b].items():
                for i in range(d):
                    for j in range(d):
                        want[i][j] = want[i][j] + v * images[c][i][j]
            if prod != want:
                mult_ok = False
                witness = f"at pair ({group.labels[a]}, {group.labels[b]})"
                break
        if not mult_ok:
            break
    report.add("multiplicative", mult_ok, witness)
    inv_mats = [mat_inverse(rep.matrices[h], field) for h in range(n)]
    equi_ok, witness = True, ""
    for h in range(n):
        for a in range(n):
            lhs = images[group.table[h][a]]
            rhs = mat_mul(mat_mul(rep.matrices[h], images[a], field),
                          inv_mats[h], field)
            if lhs != rhs:
                equi_ok = False
                witness = f"at (h, x) = ({group.labels[h]}, {group.labels[a]})"
                break
        if not equi_ok:
            break
    report.add("equivariant", equi_ok, witness)
    return report


def derive_equivariant_iso(M, rep):
    """Construct candidate images for an abelian group, or None.

    Both B and End(V) decompose into character lines for the H-action; an
    equivariant iso scales one line basis into the other, and the scaling
    factors satisfy a character 2-cocycle relation solved by telescoping.
    """
    group, field = M.group, M.field
    if not isinstance(group, AbelianGroup):
        return None
    n = group.order
    d = rep.dim
    if d * d != n:
        return None
    chars = AbelianCharacters.of_group(group, field)
    powers, N = chars.powers, chars.N
    E = chars.exponents()
    inv_n = field.from_fraction(Fraction(1, n))
    # lines in B: v_chi = (1/n) sum_h conj(chi)(h) Y_h
    v_lines = []
    for t in range(n):
        v_lines.append({h: powers[-E[t][h] % N] * inv_n for h in range(n)})
    # lines in End(V) under conjugation: project every matrix unit
    inv_mats = [mat_inverse(rep.matrices[h], field) for h in range(n)]
    w_lines = []
    for t in range(n):
        w = None
        for p in range(d):
            for q in range(d):
                proj = [[field.zero()] * d for _ in range(d)]
                for h in range(n):
                    coeff = powers[-E[t][h] % N] * inv_n
                    mh, mi = rep.matrices[h], inv_mats[h]
                    for i in range(d):
                        if mh[i][p]:
                            for j in range(d):
                                proj[i][j] = proj[i][j] + \
                                    coeff * mh[i][p] * mi[q][j]
                if any(any(row) for row in proj):
                    if w is None:
                        w = proj
                    else:
                        if mat_ratio(proj, w, field) is None:
                            return None  # isotypic multiplicity above 1
        if w is None:
            return None  # character missing: action is not regular
        w_lines.append(w)
    # the trivial line must be the scalars; pin it so the unit maps to the
    # identity (the unit of B is n * v_0)
    ident = [[field.one() if i == j else field.zero() for j in range(d)]
             for i in range(d)]
    if mat_ratio(w_lines[0], ident, field) is None:
        return None
    w_lines[0] = [[inv_n if i == j else field.zero() for j in range(d)]
                  for i in range(d)]
    # structure scalars on both sides
    def q(i, j):
        ij = group.add(i, j)
        prod_v = M.algebra.mult_vec(v_lines[i], v_lines[j])
        r_v = vec_ratio(prod_v, v_lines[ij], field)
        prod_w = mat_mul(w_lines[i], w_lines[j], field)
        r_w = mat_ratio(prod_w, w_lines[ij], field)
        if r_v is None or r_w is None or not r_v or not r_w:
            raise MovshevError("line products fall outside the line pattern")
        return r_w * r_v.inverse()
    try:
        t = solve_character_cocycle(group, field, q)
    except MovshevError:
        return None
    if t is None:
        return None
    # Y_x = sum_chi chi(x) v_chi, so T(Y_x) = sum_chi chi(x) t_chi w_chi
    images = []
    for x in range(n):
        mat = [[field.zero()] * d for _ in range(d)]
        for c in range(n):
            coeff = powers[E[c][x]] * t[c]
            if coeff:
                wc = w_lines[c]
                for i in range(d):
                    for j in range(d):
                        if wc[i][j]:
                            mat[i][j] = mat[i][j] + coeff * wc[i][j]
        images.append(mat)
    return images


def match_projective_rep(twist, rep, images=None):
    """Report on whether B is H-equivariantly isomorphic to End(V).

    A candidate map may be supplied as images (list of matrices per basis
    index); otherwise one is derived for abelian groups via character
    lines.  The report is the certificate either way.
    """
    n = twist.group.order
    if rep.dim * rep.dim != n:
        raise MovshevError(
            f"dimension mismatch: |H| = {n} but dim V = {rep.dim}")
    M = dual_movshev(twist)
    if images is None:
        images = derive_equivariant_iso(M, rep)
    if images is None:
        report = CheckReport("equivariant isomorphism onto End(V)")
        report.add("candidate construction", False,
                   "no equivariant isomorphism candidate could be derived")
        return report
    return equivariant_iso_report(M, rep, images)


# ---------------------------------------------------------------------------
# gauge invariance of the dual algebra

def gauge_movshev_images(twist, x):
    """Images of the canonical iso from the dual of J to the dual of J^x.

    Right multiplication by the counit-normalized gauge element is a
    coalgebra map (k[H], D_{J^x}) -> (k[H], D_J) commuting with left
    translation, so its transpose Y_z -> sum_y x_{y^{-1} z} Y_y is an
    equivariant algebra map of the duals.  Returned as dict vectors.
    """
    group = twist.group
    eps = hopf_counit(x)
    if not eps:
        raise MovshevError("gauge element has counit zero")
    x = x.scale(eps.inverse())
    inv = group.inv
    images = []
    for z in range(group.order):
        vec = {}
        for y in range(group.order):
            v = x.coeffs.get((group.table[inv[y]][z],))
            if v:
                vec[y] = v
        images.append(vec)
    return images


def movshev_iso_report(M1, M2, images):
    """Certify images: M1 -> M2 (dict vectors per basis index) as an
    H-equivariant unital algebra isomorphism."""
    group, field = M1.group, M1.field
    n = group.order
    report = CheckReport("equivariant isomorphism of dual algebras")
    report.add("dimension match", M2.dim == n, "")
    zero = field.zero()
    flat = [[images[x].get(j, zero) for j in range(n)] for x in range(n)]
    report.add("linear bijection", mat_rank(flat, n) == n, "")
    unit_img = {}
    for x, v in M1.algebra.unit.items():
        for j, w in images[x].items():
            cur = unit_img.get(j, zero)
            unit_img[j] = cur + v * w
    unit_img = {k: v for k, v in unit_img.items() if v}
    report.add("unital", unit_img == M2.algebra.unit, "")
    ok, witness = True, ""
    for a in range(n):
        for b in range(n):
            lhs = M2.algebra.mult_vec(images[a], images[b])
            rhs = {}
            for c, v in M1.algebra.m[a][b].items():
                for j, w in images[c].items():
                    cur = rhs.get(j, zero)
                    s = cur + v * w
                    if s:
                        rhs[j] = s
                    elif j in rhs:
                        del rhs[j]
            if lhs != rhs:
                ok, witness = False, f"at ({group.labels[a]}, {group.labels[b]})"
                break
        if not ok:
            break
    report.add("multiplicative", ok, witness)
    table = group.table
    ok, witness = True, ""
    for h in range(n):
        for a in range(n):
            lhs = images[table[h][a]]
            rhs = {table[h][j]: v for j, v in images[a].items()}
            if lhs != rhs:
                ok, witness = False, f"at ({group.labels[h]}, {group.labels[a]})"
                break
        if not ok:
            break
    report.add("equivariant", ok, witness)
    return report
