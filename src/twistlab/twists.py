"""Twists of group algebras and the structures they induce.

A twist is an invertible J in k[H] (x) k[H] satisfying the cocycle identity
(Delta (x) I)(J) J_12 = (I (x) Delta)(J) J_23 and the counit identities
(eps (x) I)(J) = (I (x) eps)(J) = 1.  Twisting replaces the coproduct by
Delta_J(x) = J^{-1} Delta(x) J and turns J_21^{-1} J into a triangular
R-matrix.  Every checker here decides exact equalities and reports the first
differing coefficient on failure.
"""
from __future__ import annotations

from .algebra import (
    AlgebraError, TensorElement, algebra_invert, hopf_coproduct, hopf_counit,
    hopf_antipode, mat_rank,
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
    """Named pass/fail results with first-failure witnesses."""

    def __init__(self, title):
        self.title = title
        self.checks = []

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
    """A verified twist; construct through verify_twist."""

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


def check_twist(J):
    """Exact report on the twist axioms for a rank-2 tensor J."""
    if J.rank != 2:
        raise TwistError("a twist must be a rank-2 tensor")
    report = CheckReport(f"twist axioms over {J.group.name}")
    unit1 = TensorElement.unit(J.group, 1, J.field)
    report.add_equal("counit left leg", J.counit_leg(0), unit1)
    report.add_equal("counit right leg", J.counit_leg(1), unit1)
    lhs = J.coproduct_leg(0) * J.embed((1, 2), 3)
    rhs = J.coproduct_leg(1) * J.embed((2, 3), 3)
    report.add_equal("cocycle identity", lhs, rhs)
    try:
        j_inv = algebra_invert(J)
        report.add("invertibility", True)
    except AlgebraError as exc:
        j_inv = None
        report.add("invertibility", False, str(exc))
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
    """The twist J^x = Delta(x) J (x^{-1} (x) x^{-1}), verified.

    x is rescaled so that eps(x) = 1; without that normalization J^x fails
    the counit identities.
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
    return verify_twist(Jx)


def r_matrix(twist, base=None):
    """R = J_21^{-1} (base) J; base defaults to 1 (x) 1."""
    r = twist.j_inv.swap()
    if base is not None:
        r = r * base
    return r * twist.J


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

    Q = m(S (x) I)(J); the conjugation direction matches the coproduct
    convention Delta_J = J^{-1} Delta J.  Both antipode axioms for
    (Delta_J, eps, S_J) are verified on every basis element before
    returning, so a convention mismatch cannot pass silently.
    """
    Q = twist.J.antipode_leg(0).merge_legs(0, 1)
    try:
        Q_inv = algebra_invert(Q)
    except AlgebraError as exc:
        raise TwistError(f"antipode conjugator is not invertible: {exc}")
    group, field = twist.group, twist.field
    inv = group.inv
    images = [Q_inv * TensorElement.basis(group, (inv[g],), field) * Q
              for g in range(group.order)]
    smap = GroupAlgebraMap(group, field, images)
    unit1 = TensorElement.unit(group, 1, field)
    for g in range(group.order):
        d = twist.coproduct_basis(g)
        if _fold_map(d, smap, 0) != unit1 or _fold_map(d, smap, 1) != unit1:
            raise TwistError(
                f"antipode axiom fails at basis element {group.labels[g]}")
    return smap


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
    Checks: u invertible, u central, u^2 = e, and (when a coproduct is
    supplied, as a map from basis index to rank-2 tensor) u grouplike for
    it.  Any failure raises.
    """
    group, field = r.group, r.field
    table = group.table
    out = {}
    for (a, b), v in r.coeffs.items():
        for (h,), w in antipode.images[b].coeffs.items():
            key = (table[h][a],)
            vw = v * w
            cur = out.get(key)
            out[key] = vw if cur is None else cur + vw
    u = TensorElement(group, 1, field, out)
    try:
        algebra_invert(u)
    except AlgebraError as exc:
        raise TwistError(f"drinfeld element is not invertible: {exc}")
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


def check_triangular(group, coproduct, r):
    """Report on the five R-matrix axioms for (k[G], coproduct, r).

    coproduct maps basis index g to a rank-2 tensor.  Checked exactly:
    invertibility, R Delta(x) = Delta_op(x) R on the basis, the two hexagon
    identities, and R_21 R = 1 (x) 1.
    """
    field = r.field
    report = CheckReport(f"triangular structure over {group.name}")
    try:
        algebra_invert(r)
        report.add("R invertible", True)
    except AlgebraError as exc:
        report.add("R invertible", False, str(exc))
    unit2 = TensorElement.unit(group, 2, field)
    report.add_equal("unitarity R_21 R = 1", r.swap() * r, unit2)
    deltas = [coproduct(g) for g in range(group.order)]
    comm_ok, comm_witness = True, ""
    for g in range(group.order):
        lhs = r * deltas[g]
        rhs = deltas[g].swap() * r
        diff = first_difference(lhs, rhs)
        if diff is not None:
            comm_ok = False
            k, va, vb = diff
            comm_witness = (f"x = {group.labels[g]} at {k}: {va} != {vb}")
            break
    report.add("R-commutation with coproduct", comm_ok, comm_witness)
    # (Delta (x) I)(R) = R_13 R_23
    lhs = _delta_on_leg(deltas.__getitem__, r, 0)
    rhs = r.embed((1, 3), 3) * r.embed((2, 3), 3)
    report.add_equal("hexagon (Delta (x) I)R = R13 R23", lhs, rhs)
    # (I (x) Delta)(R) = R_13 R_12
    lhs = _delta_on_leg(deltas.__getitem__, r, 1)
    rhs = r.embed((1, 3), 3) * r.embed((1, 2), 3)
    report.add_equal("hexagon (I (x) Delta)R = R13 R12", lhs, rhs)
    return report


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
    """Dimension of the span of the tensor legs of r, same on both sides."""
    n = group.order
    field = r.field
    zero = field.zero()
    rows = {}
    for (a, b), v in r.coeffs.items():
        rows.setdefault(a, [zero] * n)[b] = v
    mat = [row for row in rows.values()]
    left = mat_rank(mat, n)
    cols = {}
    for (a, b), v in r.coeffs.items():
        cols.setdefault(b, [zero] * n)[a] = v
    right = mat_rank(list(cols.values()), n)
    if left != right:
        raise TwistError("leg span ranks disagree between slots")
    return left


def verify_minimal(group, r):
    """True iff both leg spans of r are all of k[G]."""
    return leg_span_rank(group, r) == group.order
