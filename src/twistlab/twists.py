"""Twists of group algebras and the structures they induce.

A twist is an invertible J in k[H] (x) k[H] satisfying the cocycle identity
(Delta (x) I)(J) J_12 = (I (x) Delta)(J) J_23 and the counit identities
(eps (x) I)(J) = (I (x) eps)(J) = 1.  Twisting replaces the coproduct by
Delta_J(x) = J^{-1} Delta(x) J and turns J_21^{-1} J into a triangular
R-matrix.  Every checker here decides exact equalities and reports the first
differing coefficient on failure.  What an identity proves is not checked
again: a gauge transform carries its inverse in closed form, R_21 R = 1
and u^2 = 1 certify that R and u are invertible, an R built from a
certified twist is triangular by the twisting lemma (triangular_structure),
and the twisted antipode conjugates by Q^{-1} read off the carried J^{-1}
(twisted_antipode).
"""
from __future__ import annotations

from math import lcm
from operator import attrgetter

from .scalars import ScalarError
from .algebra import (
    AbelianCharacters, AlgebraError, TensorElement, abelian_basis,
    algebra_invert, hopf_coproduct, hopf_counit, mat_rank,
)


class TwistError(ValueError):
    pass


def first_difference(a, b):
    """First (key, left, right) where two tensors disagree, or None."""
    keys = set(a.coeffs) | set(b.coeffs)
    for k in sorted(keys):
        va, vb = a.get(k), b.get(k)
        if va != vb:
            return (k, va, vb)
    return None


class CheckReport:
    """Named pass/fail results with first-failure witnesses; passing names
    lines that hold by construction."""

    def __init__(self, title, passing=()):
        self.title = title
        self.checks = [(name, True, "") for name in passing]

    def add(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), witness))

    def add_equal(self, name, lhs, rhs):
        diff = first_difference(lhs, rhs)
        if diff is None:
            self.checks.append((name, True, ""))
        else:
            k, va, vb = diff
            self.checks.append(
                (name, False, f"at {k}: {va} != {vb}"))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, w) for n, ok, w in self.checks if not ok]

    def summary(self):
        lines = [self.title]
        for name, ok, witness in self.checks:
            line = f"  {'PASS' if ok else 'FAIL'} {name}"
            if witness and not ok:
                line += f" ({witness})"
            lines.append(line)
        return "\n".join(lines)

    def raise_if_failed(self, exc=None):
        if not self.ok:
            raise (exc or TwistError)(self.summary())


class GroupAlgebraMap:
    """Linear endomorphism of a group algebra, stored on the group basis."""

    __slots__ = ("group", "field", "images")

    def __init__(self, group, field, images):
        if len(images) != group.order:
            raise TwistError("one image per group element is required")
        self.group = group
        self.field = field
        self.images = images

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraMap):
            return NotImplemented
        return self.group is other.group and self.images == other.images


class Twist:
    """A twist with its inverse (verify_twist, gauge_transform, embed_twist)."""

    __slots__ = ("group", "field", "J", "j_inv", "_delta_cache", "_abelian")

    def __init__(self, J, j_inv):
        self.group = J.group
        self.field = J.field
        self.J = J
        self.j_inv = j_inv
        self._delta_cache = {}
        self._abelian = J.group.is_abelian()

    def coproduct_basis(self, g):
        """Delta_J(g) = J^{-1} (g (x) g) J, cached per group element."""
        cached = self._delta_cache.get(g)
        if cached is not None:
            return cached
        if self._abelian:
            # the tensor-square algebra is commutative, conjugation is trivial
            out = TensorElement.basis(self.group, (g, g), self.field)
        else:
            gg = TensorElement.basis(self.group, (g, g), self.field)
            out = self.j_inv * gg * self.J
        self._delta_cache[g] = out
        return out

    def is_symmetric(self):
        return self.J.swap() == self.J

    def report(self):
        """check_twist's report on J, all passing: a Twist is certified."""
        return CheckReport(f"twist axioms over {self.group.name}", TWIST_LINES)


TWIST_LINES = ("counit left leg", "counit right leg", "cocycle identity",
               "invertibility")


def check_twist(J):
    """Exact report on the twist axioms for a rank-2 tensor J."""
    if J.rank != 2:
        raise TwistError("a twist must be a rank-2 tensor")
    left, right, cocycle, invertible = TWIST_LINES
    report = CheckReport(f"twist axioms over {J.group.name}")
    unit1 = TensorElement.unit(J.group, 1, J.field)
    report.add_equal(left, J.counit_leg(0), unit1)
    report.add_equal(right, J.counit_leg(1), unit1)
    lhs = J.coproduct_leg(0) * J.embed((1, 2), 3)
    rhs = J.coproduct_leg(1) * J.embed((2, 3), 3)
    report.add_equal(cocycle, lhs, rhs)
    try:
        j_inv = algebra_invert(J)
        report.add(invertible, True)
    except AlgebraError as exc:
        j_inv = None
        report.add(invertible, False, str(exc))
    report.j_inv = j_inv
    return report


def verify_twist(J):
    """Certified Twist, or TwistError naming the failed identity."""
    report = check_twist(J)
    report.raise_if_failed()
    return Twist(J, report.j_inv)


def identity_twist(group, field):
    return verify_twist(TensorElement.unit(group, 2, field))


def gauge_transform(twist, x):
    """The twist J^x = Delta(x) J (x^{-1} (x) x^{-1}) with its inverse.

    x is rescaled so that eps(x) = 1; without that normalization J^x fails
    the counit identities.  With it J^x is a twist, as Delta is an algebra
    map, and (x (x) x) J^{-1} Delta(x^{-1}) is its inverse.
    """
    if x.rank != 1:
        raise TwistError("gauge element must be rank 1")
    eps = hopf_counit(x)
    if not eps:
        raise TwistError("gauge element has counit zero")
    x = x.scale(eps.inverse())
    try:
        x_inv = algebra_invert(x)
    except AlgebraError as exc:
        raise TwistError(f"gauge element is not invertible: {exc}")
    Jx = hopf_coproduct(x) * twist.J * x_inv.outer(x_inv)
    return Twist(Jx, x.outer(x) * twist.j_inv * hopf_coproduct(x_inv))


def r_matrix(twist):
    """R = J_21^{-1} J."""
    return twist.j_inv.swap() * twist.J


def twisted_coproduct(twist, x):
    """Delta_J(x) = J^{-1} Delta(x) J for a rank-1 x."""
    if x.rank != 1:
        raise TwistError("twisted coproduct applies to rank-1 elements")
    out = TensorElement.zero(twist.group, 2, twist.field)
    for (g,), v in x.coeffs.items():
        out = out + twist.coproduct_basis(g).scale(v)
    return out


def coassociativity_ok(twist):
    """Exact coassociativity of Delta_J on every basis element."""
    for g in range(twist.group.order):
        d = twist.coproduct_basis(g)
        lhs = _delta_on_leg(twist.coproduct_basis, d, 0)
        rhs = _delta_on_leg(twist.coproduct_basis, d, 1)
        if lhs != rhs:
            return False
    return True


def twisted_antipode(twist):
    """The antipode of the twisted Hopf algebra, S_J(a) = Q^{-1} S(a) Q.

    Drinfeld's twisting: for a twist J = sum f_i (x) g_i with inverse
    J^{-1} = sum p_j (x) q_j, k[G]^J with Delta_J = J^{-1} Delta J is a Hopf
    algebra whose antipode is S_J(a) = Q^{-1} S(a) Q, where
    Q = m(S (x) I)(J) = sum S(f_i) g_i is invertible with
    Q^{-1} = m(I (x) S)(J^{-1}) = sum p_j S(q_j).  A Twist is certified and
    carries J^{-1}, so U = m(I (x) S)(J^{-1}) is read off it and only
    Q U = 1 is checked: in the finite-dimensional k[G] a one-sided inverse
    is two-sided (algebra_invert), and nothing is inverted or checked again.
    A Q U != 1 means the carried inverse is wrong and raises.  Over an
    abelian group k[G] is commutative and the conjugation fixes
    S(g) = g^{-1}, which is then the image, as in Twist.coproduct_basis.
    """
    group, field = twist.group, twist.field
    Q = twist.J.antipode_leg(0).merge_legs(0, 1)
    U = twist.j_inv.antipode_leg(1).merge_legs(0, 1)
    if Q * U != TensorElement.unit(group, 1, field):
        raise TwistError("antipode conjugator is not invertible: "
                         "Q m(I (x) S)(J^-1) != 1")
    inv = group.inv
    images = [TensorElement.basis(group, (inv[g],), field) for g in
              range(group.order)]
    if not twist._abelian:
        images = [U * img * Q for img in images]
    return GroupAlgebraMap(group, field, images)


def _fold_map(t, smap, leg):
    """m((f (x) I))(t) for leg 0, m((I (x) f))(t) for leg 1."""
    group, field = t.group, t.field
    table = group.table
    out = {}
    for (a, b), v in t.coeffs.items():
        img = smap.images[a if leg == 0 else b]
        for (h,), w in img.coeffs.items():
            key = (table[h][b],) if leg == 0 else (table[a][h],)
            vw = v * w
            cur = out.get(key)
            out[key] = vw if cur is None else cur + vw
    return TensorElement(group, 1, field, out)


def drinfeld_element(r, antipode, coproduct=None):
    """u = sum S'(b_i) a_i for R = sum a_i (x) b_i, with its certificates.

    antipode is the GroupAlgebraMap S', as twisted_antipode returns it.
    Checks: u central, u^2 = e, which makes u its own inverse, and (when a
    coproduct is supplied, as a map from basis index to rank-2 tensor) u
    grouplike for it.  Any failure raises.
    """
    group, field = r.group, r.field
    u = _fold_map(r.swap(), antipode, 0)
    for g in range(group.order):
        gb = TensorElement.basis(group, (g,), field)
        if u * gb != gb * u:
            raise TwistError("drinfeld element is not central")
    unit1 = TensorElement.unit(group, 1, field)
    if u * u != unit1:
        raise TwistError("drinfeld element does not square to the identity")
    if coproduct is not None:
        du = TensorElement.zero(group, 2, field)
        for (g,), v in u.coeffs.items():
            du = du + coproduct(g).scale(v)
        if du != u.outer(u):
            raise TwistError("drinfeld element is not grouplike")
    return u


def triangular_structure(twist, u=None):
    """(R, report) for R = J_21^{-1} J R_u, triangular by the twisting lemma.

    Twisting lemma: if (A, R) is triangular and J is a twist of A, then
    (A^J, J_21^{-1} R J) is triangular for the coproduct J^{-1} Delta J.
    Both hypotheses for A = k[G] and R = R_u are already certified:
    - a Twist exists only through verify_twist, gauge_transform or
      embed_twist;
    - r_u refuses a u that is not central or does not square to e, so R_u
      lies in k[Z(G)] (x) k[Z(G)] and J_21^{-1} R_u J = J_21^{-1} J R_u.
    The report holds the five check_triangular lines, all passing.
    """
    r = r_matrix(twist)
    if u is not None:
        r = r * r_u(twist.group, twist.field, u)
    return r, CheckReport(f"triangular structure over {twist.group.name}",
                          TRIANGULAR_LINES)


def r_u(group, field, u):
    """R_u = (1/2)(1 (x) 1 + 1 (x) u + u (x) 1 - u (x) u) for central u, u^2 = e."""
    e = group.identity
    if group.table[u][u] != e:
        raise TwistError("element does not square to the identity")
    if any(group.table[u][g] != group.table[g][u] for g in range(group.order)):
        raise TwistError("element is not central")
    if u == e:
        return TensorElement.unit(group, 2, field)
    if field.characteristic == 2:
        raise TwistError("R_u requires 2 to be invertible")
    from fractions import Fraction
    half = field.from_fraction(Fraction(1, 2))
    return TensorElement(group, 2, field, {
        (e, e): half, (e, u): half, (u, e): half, (u, u): -half})


TRIANGULAR_LINES = (
    "R invertible", "unitarity R_21 R = 1", "R-commutation with coproduct",
    "hexagon (Delta (x) I)R = R13 R23", "hexagon (I (x) Delta)R = R13 R12")


def check_triangular(group, coproduct, r):
    """Report on the five R-matrix axioms for (k[G], coproduct, r).

    coproduct maps basis index g to a rank-2 tensor.  Checked exactly:
    invertibility, R Delta(x) = Delta_op(x) R on the basis, the two hexagon
    identities, and R_21 R = 1 (x) 1.  triangular_lines decide them with
    |G|^3 lookups when the coproduct is g -> g (x) g, r has a character_table
    and more than |G|^(3/2) terms (the tensor engine multiplies pairs of
    terms); otherwise, or when a line fails, the tensor engine does.
    """
    report = CheckReport(f"triangular structure over {group.name}")
    if len(r.coeffs) ** 2 > group.order ** 3 and \
            all(coproduct(g) == TensorElement.basis(group, (g, g), r.field)
                for g in range(group.order)):
        table = character_table(r)
        report.checks = triangular_lines(r.field, *table) if table else []
    ok = report.checks and report.ok
    return report if ok else _tensor_triangular(group, coproduct, r)


def _tensor_triangular(group, coproduct, r):
    """check_triangular on tensors; R is inverted only if R_21 R != 1 (x) 1."""
    field = r.field
    invertible, unitary, commutes, hexagon1, hexagon2 = TRIANGULAR_LINES
    report = CheckReport(f"triangular structure over {group.name}")
    unit2 = TensorElement.unit(group, 2, field)
    unitarity = r.swap() * r
    try:
        if unitarity != unit2:
            algebra_invert(r)
        report.add(invertible, True)
    except AlgebraError as exc:
        report.add(invertible, False, str(exc))
    report.add_equal(unitary, unitarity, unit2)
    deltas = [coproduct(g) for g in range(group.order)]
    witness = ""
    for g in range(group.order):
        diff = first_difference(r * deltas[g], deltas[g].swap() * r)
        if diff is not None:
            k, va, vb = diff
            witness = f"x = {group.labels[g]} at {k}: {va} != {vb}"
            break
    report.add(commutes, not witness, witness)
    report.add_equal(hexagon1, _delta_on_leg(deltas.__getitem__, r, 0),
                     r.embed((1, 3), 3) * r.embed((2, 3), 3))
    report.add_equal(hexagon2, _delta_on_leg(deltas.__getitem__, r, 1),
                     r.embed((1, 3), 3) * r.embed((1, 2), 3))
    return report


def character_table(t):
    """(rows, add) with rows[s][u] = (chi_s (x) chi_u)(t) for a rank-2 t.

    Characters carry the mixed-radix order of the abelian_basis coordinates,
    index 0 is the trivial one and add[s][u] is the index of chi_s chi_u.
    None unless the group is abelian and the field has its roots of unity,
    which it lacks when its characteristic divides the group order.
    """
    group, field, n = t.group, t.field, t.group.order
    if not group.is_abelian():
        return None
    orders, dlog = abelian_basis(list(range(n)), group.mul, group.identity)
    try:
        chars = AbelianCharacters(orders, dlog, field)
    except ScalarError:
        return None
    pos = chars.pos
    vals = [field.zero()] * (n * n)
    for (a, b), v in t.coeffs.items():
        vals[pos[a] * n + pos[b]] = v
    flat = chars.forward(vals, rank=2)
    # the slot of a member is the index of the character with its
    # coordinates, so slots add as their members multiply
    member = sorted(range(n), key=pos.__getitem__)
    add = [[pos[group.table[a][b]] for b in member] for a in member]
    return [flat[s:s + n] for s in range(0, n * n, n)], add


class ValueNames:
    """Small-int names for the distinct values of a table of scalars.

    A name stands for a value, not for its representation: cyclotomic
    entries are promoted to the lcm of the table's conductors, where
    (num, den) is unique, and residues are named by v, so Q(z_1) 1 and
    Q(z_4) 1 share one name.  Products and inverses of values at that
    conductor stay there.  grid holds the names of the table, and the names
    ZERO and ONE stand for 0 and 1.  product(a, b) and inverse(a) compute a
    value once and name it; memo maps a pair of names to the name of their
    product, for loops that look it up before calling product.  forget()
    drops the names and memo entries they added, which bounds memory when
    most products are new.
    """

    __slots__ = ("values", "grid", "memo", "_key", "_ids", "_base",
                 "_inverses")
    ZERO, ONE = 0, 1

    def __init__(self, field, rows):
        units = [field.zero(), field.one()]
        if field.kind == "prime":
            self._key = attrgetter("v")
        else:
            m = lcm(*{v.n for row in rows for v in row})
            rows = [[v.promote(m) for v in row] for row in rows]
            units = [v.promote(m) for v in units]
            self._key = attrgetter("num", "den")
        self.values, self._ids = [], {}
        for v in units:
            self._name(v)
        self.grid = [[self._name(v) for v in row] for row in rows]
        self._base = len(self.values)
        self.memo, self._inverses = {}, {}

    def _name(self, v):
        key = self._key(v)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.values)
            self.values.append(v)
        return i

    def product(self, a, b):
        i = self.memo.get((a, b))
        if i is None:
            values = self.values
            i = self.memo[a, b] = self._name(values[a] * values[b])
        return i

    def inverse(self, a):
        i = self._inverses.get(a)
        if i is None:
            i = self._inverses[a] = self._name(self.values[a].inverse())
        return i

    def forget(self):
        key, ids = self._key, self._ids
        for v in self.values[self._base:]:
            del ids[key(v)]
        del self.values[self._base:]
        self.memo.clear()
        self._inverses.clear()


def triangular_lines(field, rhat, add):
    """The five check_triangular lines of R from its character table.

    The chi_s (x) chi_t separate k[G] (x) k[G], so with the coproduct
    g -> g (x) g and R^(s, t) = (chi_s (x) chi_t)(R): R is invertible when
    no R^(s, t) is zero, R_21 R = 1 is R^(t, s) R^(s, t) = 1, R commutes
    with the cocommutative coproduct, and the hexagons are
    R^(s+t, r) = R^(s, r) R^(t, r) and R^(s, t+r) = R^(s, t) R^(s, r).
    The lines compare ValueNames, and each distinct product is computed
    once per outer index s.
    """
    names = ValueNames(field, rhat)
    grid, product, n = names.grid, names.product, len(rhat)
    zero, one = ValueNames.ZERO, ValueNames.ONE
    second = _hexagon_failure(names, [list(col) for col in zip(*grid)], add)
    found = [
        next(((s, t) for s in range(n) for t in range(n)
              if grid[s][t] == zero), None),
        next(((s, t) for s in range(n) for t in range(n)
              if product(grid[t][s], grid[s][t]) != one), None),
        None,
        _hexagon_failure(names, grid, add),
        # the second hexagon is the first on the transpose, at (t, r, s)
        second and (second[2], second[0], second[1]),
    ]
    return [(name, at is None, "" if at is None else f"at characters {at}")
            for name, at in zip(TRIANGULAR_LINES, found)]


def _hexagon_failure(names, grid, add):
    """First (s, t, r) with grid[s + t][r] != grid[s][r] grid[t][r], on the
    names of one ValueNames."""
    n, memo, product = len(grid), names.memo, names.product
    for s in range(n):
        names.forget()
        rs, adds = grid[s], add[s]
        for t in range(n):
            rt, r_st = grid[t], grid[adds[t]]
            for r in range(n):
                a, b = rs[r], rt[r]
                ab = memo.get((a, b))
                if ab is None:
                    ab = product(a, b)
                if r_st[r] != ab:
                    return s, t, r
    return None


def cocycle_failure(field, rows, add):
    """First (s, t, r) with c(s, t) c(s+t, r) != c(t, r) c(s, t+r).

    rows[s][t] = c(s, t) and add[s][t] is the index of s + t: the group
    table for a 2-cocycle on a group, the character product for the
    transform J^ of a twist on an abelian group.  The loop compares
    ValueNames, and each distinct product is computed once per s.
    """
    names = ValueNames(field, rows)
    grid, memo, product = names.grid, names.memo, names.product
    n = len(grid)
    for s in range(n):
        names.forget()
        cs, adds = grid[s], add[s]
        for t in range(n):
            pre, row_st, row_t, addt = cs[t], grid[adds[t]], grid[t], add[t]
            for r in range(n):
                a, b = row_st[r], row_t[r]
                left = memo.get((pre, a))
                if left is None:
                    left = product(pre, a)
                c = cs[addt[r]]
                right = memo.get((b, c))
                if right is None:
                    right = product(b, c)
                if left != right:
                    return s, t, r
    return None


def _delta_on_leg(coproduct, r, leg):
    """Apply a coproduct, given as a map from basis index to rank-2 tensor,
    to one 0-based leg of a rank-2 tensor."""
    out = {}
    for (a, b), v in r.coeffs.items():
        d = coproduct(a if leg == 0 else b)
        for (p, q), w in d.coeffs.items():
            key = (p, q, b) if leg == 0 else (a, p, q)
            vw = v * w
            cur = out.get(key)
            out[key] = vw if cur is None else cur + vw
    return TensorElement(r.group, 3, r.field, out)


def verify_triangular(group, coproduct, r):
    report = check_triangular(group, coproduct, r)
    report.raise_if_failed()
    return report


def leg_span_rank(group, r):
    """Dimension of the span of the tensor legs of r.

    The legs of either slot span the row or the column space of the
    coefficient matrix C[a][b] = r(a, b), and rank C = rank C^T, so the
    rows are ranked once for both.
    """
    n, zero = group.order, r.field.zero()
    rows = {}
    for (a, b), v in r.coeffs.items():
        rows.setdefault(a, [zero] * n)[b] = v
    return mat_rank(list(rows.values()), n)


def verify_minimal(group, r):
    """True iff both leg spans of r are all of k[G]."""
    return leg_span_rank(group, r) == group.order
