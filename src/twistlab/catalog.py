"""Classification data for triangular structures on group algebras.

A quadruple (G, H, V, u) packages a finite group G, an abelian subgroup H
of perfect-square order, an irreducible projective representation V of H
with dim(V)^2 = |H| and nondegenerate cocycle, and a central element u
with u^2 = e.  realize_quadruple turns one into a certified triangular
datum: the twist of V embedded into k[G], the R-matrix J21^{-1} J R_u,
the Drinfeld element, and the minimality, solvability, and dual-algebra
certificates.  enumerate_quadruples walks a built-in group inventory,
enumerates nondegenerate alternating bicharacters on eligible subgroups,
and deduplicates by explicit transport isomorphisms.

For twists over abelian groups every axiom is equivalent to a family of
scalar identities among the character transform values J^(s, t);
AbelianTwistTable checks that battery at cubic scalar cost, which keeps
order-64 scans fast.  The generic tensor engines stay authoritative: the
two routes are cross-checked on every group small enough for both.

char_p_mirror reruns a whole realization over a prime field whose
multiplicative group hosts all needed roots of unity and compares every
boolean certificate and integer invariant with the characteristic-zero
run.
"""

import itertools
from math import gcd, isqrt, lcm, prod

from .scalars import CyclotomicField, PrimeField, is_prime
from .groups import (PairingChar, abelian_group, action_from_generator_images,
                     alternating4, dihedral, direct_product, is_isomorphic,
                     isomorphisms, make_cyclic, quaternion8, symmetric,
                     trivial_action)
from .algebra import (AbelianCharacters, TensorElement, abelian_basis,
                      mat_rank, regular_trace)
from .twists import (CheckReport, Twist, check_triangular, drinfeld_element,
                     leg_span_rank, r_matrix, r_u, twisted_antipode)
from .movshev import (certify_simple, count_grouplikes, dual_movshev,
                      regular_character_report)
from .constructions import (ProjectiveRep, cocycle_of_rep, is_nondegenerate,
                            find_bijective_1cocycles, twist_from_rep)


class CatalogError(ValueError):
    pass


# ---------------------------------------------------------------------------
# abelian coordinates and the character-side axiom battery


def abelian_coordinates(group):
    """Cyclic decomposition (orders, dlog, elements) of an abelian group.

    dlog maps element index to coordinate tuple, elements is the inverse
    map.  Works on any multiplication-table group and raises CatalogError
    when the group is not abelian.
    """
    # abelian_basis can coordinatize some nonabelian groups (normal forms
    # exist without commutativity), so commutativity is checked first
    if not group.is_abelian():
        raise CatalogError(f"{group.name} is not abelian")
    decomp = abelian_basis(list(range(group.order)), group.mul,
                           group.identity)
    if decomp is None:
        raise CatalogError(f"{group.name} has no cyclic decomposition")
    orders, dlog = decomp
    elements = {coords: g for g, coords in dlog.items()}
    return orders, dlog, elements


class AbelianTwistTable:
    """Character transform J^(s, t) of a rank-2 tensor over an abelian group.

    Characters carry the same mixed-radix indexing as a fixed cyclic
    decomposition of the group; index addition is the character product.
    Over an abelian group the twist and R-matrix axioms are equivalent to
    scalar identities among the transform values, checked here at
    quadratic or cubic scalar cost.  Character index 0 is the trivial
    character throughout.
    """

    def __init__(self, J):
        if J.rank != 2:
            raise CatalogError("the character table needs a rank-2 tensor")
        group, field = J.group, J.field
        n = group.order
        if field.characteristic and n % field.characteristic == 0:
            raise CatalogError("field characteristic divides the group order")
        orders, dlog, _ = abelian_coordinates(group)
        chars = AbelianCharacters(orders, dlog, field)
        pos = chars.pos
        vals = [field.zero()] * (n * n)
        for (a, b), v in J.coeffs.items():
            vals[pos[a] * n + pos[b]] = v
        flat = chars.forward(vals, rank=2)
        jhat = [flat[s:s + n] for s in range(0, n * n, n)]
        tuples = list(itertools.product(*[range(d) for d in orders]))
        index_of = {t: i for i, t in enumerate(tuples)}
        self.group = group
        self.field = field
        self.orders = tuple(orders)
        self.n = n
        self.jhat = jhat
        self.add = [[index_of[tuple((a + b) % d for a, b, d in
                                    zip(s, t, orders))]
                     for t in tuples] for s in tuples]
        self.neg = [index_of[tuple(-a % d for a, d in zip(s, orders))]
                    for s in tuples]
        self._rhat = None

    def rhat(self):
        """Transform of R = J21^{-1} J; needs every J^(s, t) nonzero."""
        if self._rhat is None:
            n, jhat = self.n, self.jhat
            for s in range(n):
                for t in range(n):
                    if not jhat[s][t]:
                        raise CatalogError(
                            "transform is singular, the tensor is not "
                            "invertible")
            self._rhat = [[jhat[t][s].inverse() * jhat[s][t]
                           for t in range(n)] for s in range(n)]
        return self._rhat

    def leg_rank(self):
        """Rank of the R transform.

        The transform is a leg-wise invertible change of basis of the
        coefficient matrix of R, so this equals the span rank of the legs
        of R in the group algebra.
        """
        return mat_rank([list(row) for row in self.rhat()], self.n)

    def center_count(self):
        """Center dimension of the dual algebra B = (k[H], D)^*.

        In the character basis Z_s Z_t = J^(s, t) Z_{s+t}, so Z_s is
        central exactly when J^(s, t) = J^(t, s) for every t, that is
        when the R transform row at s is identically 1.
        """
        one = self.field.one()
        return sum(1 for row in self.rhat() if all(v == one for v in row))

    def grouplike_count(self):
        """Grouplikes of the conjugated coproduct: over an abelian group
        conjugation by J is trivial, so every group element stays
        grouplike."""
        if not self.group.is_abelian():
            raise CatalogError("the grouplike shortcut needs an abelian "
                               "group")
        return self.n

    def battery(self):
        """Full axiom battery on the character side.

        Counit legs, invertibility, and the cocycle identity certify the
        twist; unitarity R21 R = 1, the hexagons, and the intertwining
        hypothesis certify triangularity of R = J21^{-1} J; the remaining
        lines cover the Drinfeld element, minimality, the dual-algebra
        center, and the grouplike count.  Intertwining and the grouplike
        count hold structurally: k[H] (x) k[H] is commutative, so
        conjugation by J fixes the coproduct.
        """
        n, field = self.n, self.field
        one = field.one()
        jhat, add, neg = self.jhat, self.add, self.neg
        report = CheckReport(f"character battery over {self.group.name}")

        bad = next(((s, t) for s in range(n) for t in range(n)
                    if not jhat[s][t]), None)
        report.add("twist invertible", bad is None,
                   f"singular at character pair {bad}")
        if bad is not None:
            return report

        ok = all(jhat[0][t] == one for t in range(n)) and \
            all(jhat[s][0] == one for s in range(n))
        report.add("counit legs", ok)

        ok, witness = True, ""
        for s in range(n):
            js, adds = jhat[s], add[s]
            for t in range(n):
                pre, row_st, row_t, addt = js[t], jhat[adds[t]], jhat[t], add[t]
                for r in range(n):
                    if pre * row_st[r] != row_t[r] * js[addt[r]]:
                        ok, witness = False, f"at characters ({s}, {t}, {r})"
                        break
                if not ok:
                    break
            if not ok:
                break
        report.add("coproduct identity", ok, witness)

        rhat = self.rhat()
        ok = all(rhat[t][s] * rhat[s][t] == one
                 for s in range(n) for t in range(n))
        report.add("unitarity", ok)

        ok, witness = True, ""
        for s in range(n):
            rs, adds = rhat[s], add[s]
            for t in range(n):
                rt, r_st = rhat[t], rhat[adds[t]]
                for r in range(n):
                    if r_st[r] != rs[r] * rt[r]:
                        ok, witness = False, f"at characters ({s}, {t}, {r})"
                        break
                if not ok:
                    break
            if not ok:
                break
        report.add("hexagon on the first leg", ok, witness)

        ok, witness = True, ""
        for s in range(n):
            rs = rhat[s]
            for t in range(n):
                vt, addt = rs[t], add[t]
                for r in range(n):
                    if rs[addt[r]] != rs[r] * vt:
                        ok, witness = False, f"at characters ({s}, {t}, {r})"
                        break
                if not ok:
                    break
            if not ok:
                break
        report.add("hexagon on the second leg", ok, witness)

        report.add("coproduct intertwining", self.group.is_abelian(),
                   "needs an abelian group")

        uhat = [rhat[s][neg[s]] for s in range(n)]
        report.add("drinfeld element is the identity",
                   all(v == one for v in uhat))
        tr = field.zero()
        for v in uhat:
            tr = tr + v
        want = field.from_int(n)
        report.add("drinfeld regular trace", tr == want, f"{tr} != {want}")

        rank = self.leg_rank()
        report.add("leg span rank", rank == n, f"rank {rank} != {n}")
        center = self.center_count()
        report.add("dual center dimension", center == 1, f"dimension {center}")
        report.add("grouplike count", self.grouplike_count() == n)
        return report


# ---------------------------------------------------------------------------
# quadruples and their triangular realizations


def embed_twist(twist, G, embedding):
    """Push a twist on a subgroup into the ambient group algebra.

    embedding lists the ambient index of each subgroup element.  As it is
    checked to be an injective homomorphism, pushing along it is a Hopf
    algebra map, which carries J^{-1} to the inverse of the image twist.
    """
    H, emb = twist.group, list(embedding)
    if len(emb) != H.order or len(set(emb) & set(range(G.order))) != H.order:
        raise CatalogError(f"{emb} is not injective into {G.name}")
    if any(G.table[emb[a]][emb[b]] != emb[c] for a, row in enumerate(H.table)
           for b, c in enumerate(row)):
        raise CatalogError(f"{emb} is not a group homomorphism")

    def push(t):
        coeffs = {(emb[a], emb[b]): v for (a, b), v in t.coeffs.items()}
        return TensorElement(G, 2, t.field, coeffs, prune=False)
    return Twist(push(twist.J), push(twist.j_inv))


class Quadruple:
    """Classification datum (G, H, V, u).

    H is carried both as a sorted member tuple inside G and as a
    standalone subgroup with its embedding; V is a projective
    representation of that subgroup with dim(V)^2 = |H| and nondegenerate
    cocycle; u is central with u^2 = e.
    """

    __slots__ = ("G", "members", "H", "V", "u", "_beta")

    def __init__(self, G, members, V, u, validate=True):
        self.G = G
        self.members = tuple(sorted(set(members)))
        self.H = G.subgroup(self.members)
        self.V = V
        self.u = u
        self._beta = None
        if V.group.order != len(self.members) or \
                V.group.table != self.H.table:
            raise CatalogError("representation group does not match H")
        if validate:
            self.validate()

    def validate(self):
        G, V = self.G, self.V
        if V.dim * V.dim != self.H.order:
            raise CatalogError(
                f"need dim(V)^2 = |H|: {V.dim}^2 != {self.H.order}")
        if G.table[self.u][self.u] != G.identity:
            raise CatalogError("u does not square to the identity")
        if any(G.table[self.u][g] != G.table[g][self.u]
               for g in range(G.order)):
            raise CatalogError("u is not central")
        if not is_nondegenerate(V.group, cocycle_of_rep(V)):
            raise CatalogError("the representation cocycle is degenerate")

    def beta(self, x, y):
        """Commutation bicharacter c(x, y) / c(y, x) at indices of G; None
        unless both lie in H."""
        if self._beta is None:
            n, cv = self.G.order, self.V.cocycle_value
            self._beta = [[None] * n for _ in range(n)]
            for a, x1 in enumerate(self.members):
                for b, y1 in enumerate(self.members):
                    self._beta[x1][y1] = cv(a, b) * cv(b, a).inverse()
        return self._beta[x][y]

    def profile(self):
        """Cheap isomorphism invariants used to prescreen equivalence."""
        G = self.G
        gen = G.subgroup_generated(list(self.members) + [self.u])
        return (G.order,
                len(self.members),
                tuple(sorted(G.element_order(m) for m in self.members)),
                G.element_order(self.u),
                self.u in set(self.members),
                len(gen),
                tuple(sorted(G.element_order(g) for g in range(G.order))))


class TriangularHopfDatum:
    """A realized quadruple with its certificates.

    certificates maps names to booleans and integer invariants, reports
    keeps the underlying CheckReports.  class_size counts the raw
    enumeration entries merged into this representative and deduplicated
    records whether merging ran at all.
    """

    __slots__ = ("quadruple", "field", "twist_H", "images", "twist", "r",
                 "u_element", "reports", "certificates", "deduplicated",
                 "class_size")

    def __init__(self, quadruple, field, twist_H, images, twist, r,
                 u_element, reports, certificates):
        self.quadruple = quadruple
        self.field = field
        self.twist_H = twist_H
        self.images = images
        self.twist = twist
        self.r = r
        self.u_element = u_element
        self.reports = reports
        self.certificates = certificates
        self.deduplicated = False
        self.class_size = 1

    @property
    def ok(self):
        """All boolean certificates pass.  Minimality is excluded: it is a
        reported property of the datum, not an axiom."""
        return all(v for k, v in self.certificates.items()
                   if isinstance(v, bool) and k != "minimal")

    def summary_row(self):
        q = self.quadruple
        c = self.certificates
        return (q.G.name, len(q.members), q.V.dim, q.G.labels[q.u],
                c["minimal"], c["grouplikes"], c["solvable"])


def _minimal_agreement(G, r, members, u):
    """(leg span rank of R, <H, u>); minimality by each must agree."""
    gen = G.subgroup_generated(list(members) + [u])
    rank = leg_span_rank(G, r)
    if (rank == G.order) != (len(gen) == G.order):
        raise CatalogError(
            f"minimality criteria disagree on {G.name}: leg span says "
            f"{rank == G.order} but <H, u> has order {len(gen)}")
    return rank, gen


def is_minimal_datum(datum):
    """Whether the R-matrix legs span all of k[G].

    Computed twice, from the leg span rank and from <H, u> = G; a
    disagreement between the two criteria raises CatalogError.
    """
    q = datum.quadruple
    rank, _ = _minimal_agreement(q.G, datum.r, q.members, q.u)
    return rank == q.G.order


def realize_quadruple(q, seed=0):
    """Build and certify the triangular structure attached to a quadruple.

    The twist of V is built on k[H] and certified there (simple dual
    algebra, regular character of the translation action), pushed into
    k[G] together with its inverse (embed_twist), then completed to
    R = J21^{-1} J R_u.  The returned datum carries the Drinfeld element
    together with boolean certificates and integer invariants.  Raises
    CatalogError when the two minimality criteria disagree.
    """
    field = q.V.field
    G = q.G
    if field.characteristic and G.order % field.characteristic == 0:
        raise CatalogError("field characteristic divides the group order")
    twist_H, images = twist_from_rep(q.V, seed=seed, with_images=True)
    M = dual_movshev(twist_H)
    simple = certify_simple(M)
    nh = M.group.order
    characters = regular_character_report(
        M.group, [M.action_matrix(h) for h in range(nh)], field)
    twist = embed_twist(twist_H, G, q.H.embedding)
    r = r_matrix(twist) * r_u(G, field, q.u)
    triangular = check_triangular(G, twist.coproduct_basis, r)
    u_el = drinfeld_element(r, twisted_antipode(twist),
                            twist.coproduct_basis)
    u_ok = u_el == TensorElement.basis(G, (q.u,), field)
    expected = G.order if q.u == G.identity else 0
    trace_ok = regular_trace(u_el) == field.from_int(expected)
    leg_rank, gen = _minimal_agreement(G, r, q.members, q.u)
    solvable = G.subgroup(gen).is_solvable()
    reports = {"simple": simple, "regular character": characters,
               "triangular": triangular}
    certificates = {
        "triangular": triangular.ok,
        "dual simple": simple.ok,
        "regular character": characters.ok,
        "drinfeld matches u": u_ok,
        "drinfeld trace": trace_ok,
        "minimal": leg_rank == G.order,
        "solvable": solvable,
        "center dimension": M.algebra.center_dimension(),
        "leg rank": leg_rank,
        "grouplikes": count_grouplikes(twist),
        "minimal part order": len(gen),
    }
    return TriangularHopfDatum(q, field, twist_H, images, twist, r, u_el,
                               reports, certificates)


# ---------------------------------------------------------------------------
# group inventory and subgroup lattice


_BUILTIN_CACHE = {}


def _order_profile(g):
    return (g.is_abelian(),
            tuple(sorted(g.element_order(x) for x in range(g.order))))


# Largest group order of the built-in inventory, and so of classify.
MAX_INVENTORY_ORDER = 32


def builtin_groups(max_order=MAX_INVENTORY_ORDER):
    """Group inventory up to max_order, one group per isomorphism class.

    Atoms are the cyclic groups, the dihedral groups, Q8, S3, A4, and S4;
    the inventory closes under direct products and deduplicates with
    explicit isomorphism searches.  Deterministic: ordered by group
    order, then by construction sequence.
    """
    if not 1 <= max_order <= MAX_INVENTORY_ORDER:
        raise CatalogError(
            f"supported inventory orders are 1..{MAX_INVENTORY_ORDER}")
    if max_order not in _BUILTIN_CACHE:
        atoms = [make_cyclic(n) for n in range(2, max_order + 1)]
        atoms += [dihedral(n) for n in range(3, max_order // 2 + 1)]
        if max_order >= 6:
            atoms.append(symmetric(3))
        if max_order >= 8:
            atoms.append(quaternion8())
        if max_order >= 12:
            atoms.append(alternating4())
        if max_order >= 24:
            atoms.append(symmetric(4))
        groups = [make_cyclic(1)]
        profiles = [_order_profile(groups[0])]

        def push(g):
            prof = _order_profile(g)
            for h, p in zip(groups, profiles):
                if h.order == g.order and p == prof and is_isomorphic(h, g):
                    return False
            groups.append(g)
            profiles.append(prof)
            return True

        queue = []
        for i, a in enumerate(atoms):
            if a.order <= max_order and push(a):
                queue.append((a, i))
        while queue:
            g, i = queue.pop(0)
            for j in range(i, len(atoms)):
                b = atoms[j]
                if g.order * b.order > max_order:
                    continue
                prod_g = direct_product(g, b)
                if push(prod_g):
                    queue.append((prod_g, j))
        groups.sort(key=lambda h: h.order)
        _BUILTIN_CACHE[max_order] = tuple(groups)
    return list(_BUILTIN_CACHE[max_order])


def all_subgroups(G):
    """Every subgroup of G as a sorted member tuple.

    Breadth-first closure growth: each subgroup arises from a smaller one
    by adjoining a single generator, starting from the trivial subgroup.
    """
    seen = {(G.identity,)}
    frontier = [(G.identity,)]
    while frontier:
        nxt = []
        for S in frontier:
            inside = set(S)
            for g in range(G.order):
                if g in inside:
                    continue
                T = tuple(G.subgroup_generated(list(S) + [g]))
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# alternating bicharacters and their standard representations


def alternating_bicharacters(orders):
    """Exponent matrices of the nondegenerate alternating bicharacters.

    For cyclic factor orders (d_1, ..., d_k) and N = lcm(d_i), entry
    E[i][j] is the exponent of zeta_N pairing the i-th and j-th
    generators; the upper triangle runs over Z_gcd(d_i, d_j) scaled into
    Z_N, the diagonal is zero, and the lower triangle is the negation.
    Degenerate matrices (some element pairs trivially with everything)
    are screened out elementwise.
    """
    k = len(orders)
    N = lcm(*orders) if orders else 1
    slots = [(i, j, gcd(orders[i], orders[j]))
             for i in range(k) for j in range(i + 1, k)]
    out = []
    for combo in itertools.product(*[range(g) for _, _, g in slots]):
        E = [[0] * k for _ in range(k)]
        for (i, j, g), b in zip(slots, combo):
            E[i][j] = b * (N // g) % N
            E[j][i] = -E[i][j] % N
        if _is_nondegenerate_form(orders, E, N):
            out.append(E)
    return out


def _is_nondegenerate_form(orders, E, N):
    k = len(orders)
    for x in itertools.product(*[range(d) for d in orders]):
        if not any(x):
            continue
        if all(sum(x[i] * E[i][j] for i in range(k)) % N == 0
               for j in range(k)):
            return False
    return True


def darboux_pairs(orders, E, N):
    """Split a nondegenerate alternating form into hyperbolic pairs.

    Returns a list of (x, y, d): coordinate vectors of order d with
    pairing value of exact order d, each pair orthogonal to all later
    ones.  Size accounting is checked at every split, so a degenerate or
    non-hyperbolic form cannot slip through.
    """
    k = len(orders)

    def bval(x, y):
        return sum(x[i] * E[i][j] * y[j]
                   for i in range(k) for j in range(k)) % N

    def ord_of(x):
        return lcm(*[d // gcd(d, c) for c, d in zip(x, orders)]) if k else 1

    current = [x for x in itertools.product(*[range(d) for d in orders])
               if any(x)]
    pairs = []
    while current:
        x = max(current, key=lambda v: (ord_of(v), v))
        d = ord_of(x)
        y = None
        for cand in current:
            v = bval(x, cand)
            if v and N // gcd(N, v) == d:
                y = cand
                break
        if y is None:
            raise CatalogError("no hyperbolic partner, the form is "
                               "degenerate")
        pairs.append((x, y, d))
        nxt = [h for h in current
               if bval(x, h) == 0 and bval(y, h) == 0]
        if (len(nxt) + 1) * d * d != len(current) + 1:
            raise CatalogError("hyperbolic split has the wrong size")
        current = nxt
    return pairs


def rep_from_bicharacter(sub, coords, E, field):
    """The projective representation attached to a nondegenerate
    alternating bicharacter, acting on functions on a maximal isotropic
    subgroup.

    coords is the abelian_coordinates triple of sub and E the exponent
    matrix of the form.  With H split into hyperbolic coordinates
    h = a + b (a over the x-generators, b over the y-generators), h acts
    on the point basis by delta_t -> beta(b, t) delta_{t+a}.  The
    commutation bicharacter of the result is checked against E on every
    pair of decomposition generators.
    """
    orders, dlog, elements = coords
    k = len(orders)
    N = lcm(*orders) if orders else 1
    pairs = darboux_pairs(orders, E, N)
    ds = [d for _, _, d in pairs]
    dim = prod(ds)
    if dim * dim != sub.order:
        raise CatalogError("the form does not split the group evenly")
    powers = AbelianCharacters(orders, dlog, field).powers

    def addc(v, w):
        return tuple((a + b) % d for a, b, d in zip(v, w, orders))

    def scalec(c, v):
        return tuple(c * a % d for a, d in zip(v, orders))

    def bval(x, y):
        return sum(x[i] * E[i][j] * y[j]
                   for i in range(k) for j in range(k)) % N

    zero_c = tuple(0 for _ in orders)
    kpoints = list(itertools.product(*[range(d) for d in ds]))
    kindex = {t: i for i, t in enumerate(kpoints)}
    kvec, lvec = {}, {}
    for t in kpoints:
        v, w = zero_c, zero_c
        for ti, (x, y, _) in zip(t, pairs):
            v = addc(v, scalec(ti, x))
            w = addc(w, scalec(ti, y))
        kvec[t] = v
        lvec[t] = w
    decomp = {}
    for a in kpoints:
        for b in kpoints:
            decomp[elements[addc(kvec[a], lvec[b])]] = (a, b)
    if len(decomp) != sub.order:
        raise CatalogError("hyperbolic coordinates do not cover the group")

    zero = field.zero()
    matrices = []
    for h in range(sub.order):
        a, b = decomp[h]
        bv = lvec[b]
        mat = [[zero] * dim for _ in range(dim)]
        for t in kpoints:
            row = kindex[tuple((ti + ai) % d
                               for ti, ai, d in zip(t, a, ds))]
            mat[row][kindex[t]] = powers[bval(bv, kvec[t])]
        matrices.append(mat)
    rep = ProjectiveRep(sub, matrices, field)
    for i in range(k):
        ei = elements[tuple(1 if l == i else 0 for l in range(k))]
        for j in range(k):
            ej = elements[tuple(1 if l == j else 0 for l in range(k))]
            got = rep.cocycle_value(ei, ej) * \
                rep.cocycle_value(ej, ei).inverse()
            if got != powers[E[i][j] % N]:
                raise CatalogError("the representation does not reproduce "
                                   "the bicharacter")
    return rep


# ---------------------------------------------------------------------------
# quadruple equivalence and enumeration


def transport_isomorphism(q1, q2):
    """An isomorphism G1 -> G2 carrying H1 to H2, u1 to u2, and the
    commutation bicharacter of V1 to that of V2, as its image list; None
    when there is none.
    """
    if q1.G.order != q2.G.order or len(q1.members) != len(q2.members):
        return None
    labels = [[(x in q.members, x == q.u) for x in range(q.G.order)]
              for q in (q1, q2)]
    return next(isomorphisms(q1.G, q2.G, labels=labels,
                             pair_labels=(q1.beta, q2.beta)), None)


def enumerate_quadruples(N, field=None, dedup=None, seed=0):
    """All catalog quadruples with |G| = N, realized and certified.

    Walks builtin_groups(N), every abelian subgroup of perfect-square
    order, every nondegenerate alternating bicharacter on it (realized as
    a projective representation), and every central u with u^2 = e.
    With dedup (defaults to exactly N <= 16) entries related by a
    transport isomorphism collapse to one representative whose class_size
    counts the merged raw entries.  Representatives are realized after
    merging: every certificate is invariant under transport.  Ordering is
    deterministic: inventory order, then subgroup, then form, then u.
    """
    if field is None:
        field = CyclotomicField()
    if dedup is None:
        dedup = N <= 16
    if field.characteristic and N % field.characteristic == 0:
        raise CatalogError("field characteristic divides the group order")
    raw = []
    for G in builtin_groups(N):
        if G.order != N:
            continue
        table = G.table
        centrals = [u for u in range(N)
                    if table[u][u] == G.identity
                    and all(table[u][g] == table[g][u] for g in range(N))]
        for members in all_subgroups(G):
            r = isqrt(len(members))
            if r * r != len(members):
                continue
            sub = G.subgroup(members)
            if not sub.is_abelian():
                continue
            if len(members) == 1:
                reps = [ProjectiveRep(sub, [[[field.one()]]], field)]
            else:
                coords = abelian_coordinates(sub)
                reps = [rep_from_bicharacter(sub, coords, E, field)
                        for E in alternating_bicharacters(coords[0])]
            for V in reps:
                if not is_nondegenerate(sub, cocycle_of_rep(V)):
                    raise CatalogError("enumerated cocycle is degenerate")
                for u in centrals:
                    raw.append(Quadruple(G, members, V, u, validate=False))
    kept, sizes, profiles = [], [], []
    for q in raw:
        prof = q.profile()
        match = None
        if dedup:
            for i, rep_q in enumerate(kept):
                if rep_q.G is q.G and profiles[i] == prof and \
                        transport_isomorphism(q, rep_q) is not None:
                    match = i
                    break
        if match is None:
            kept.append(q)
            sizes.append(1)
            profiles.append(prof)
        else:
            sizes[match] += 1
    data = []
    for q, size in zip(kept, sizes):
        datum = realize_quadruple(q, seed=seed)
        datum.deduplicated = dedup
        datum.class_size = size
        data.append(datum)
    return data


# ---------------------------------------------------------------------------
# the 1-cocycle finder scan and twist transport


SCAN_TRIPLES = (
    ("C2 on C2, trivial", (2,), (2,), None),
    ("C3 on C3, trivial", (3,), (3,), None),
    ("C4 on C4, trivial", (4,), (4,), None),
    ("C4 on C4, inversion", (4,), (4,), ((0, 3, 2, 1),)),
    ("C2xC2 on C4, inversion by the first factor", (2, 2), (4,),
     ((0, 3, 2, 1), (0, 1, 2, 3))),
    ("C2xC2 on C2xC2, trivial", (2, 2), (2, 2), None),
    ("C5 on C5, trivial", (5,), (5,), None),
    ("C6 on C6, trivial", (6,), (6,), None),
    ("C6 on C6, inversion", (6,), (6,), ((0, 5, 4, 3, 2, 1),)),
    ("C8 on C8, trivial", (8,), (8,), None),
    ("C2xC4 on C2xC4, trivial", (2, 4), (2, 4), None),
    ("C2xC2xC2 on C2xC2xC2, trivial", (2, 2, 2), (2, 2, 2), None),
)


def scan_triples(max_order=8):
    """The documented (G, A, action) search space of the finder, |G| <= 8."""
    out = []
    for label, gf, af, images in SCAN_TRIPLES:
        G = abelian_group(gf)
        if G.order > max_order:
            continue
        A = abelian_group(af)
        if images is None:
            action = trivial_action(G, A)
        else:
            action = action_from_generator_images(
                G, A, G.basis(), [list(p) for p in images])
        out.append((label, G, A, action))
    return out


def cocycle_relabeling(d1, d2):
    """(phi, alpha) with pi2 = alpha . pi1 . phi^{-1}, or None.

    phi is an automorphism of G and alpha an additive automorphism of A
    compatible with the action, alpha(g.a) = phi(g).alpha(a).  For the
    trivial action both cocycles are group isomorphisms G -> A, so
    phi = id with alpha = pi2 . pi1^{-1} always works.
    """
    G, A = d1.G, d1.A
    act = d1.action
    nG, nA = G.order, A.order
    pi1_inv = [0] * nA
    for g, a in enumerate(d1.pi):
        pi1_inv[a] = g

    def additive(alpha):
        return all(alpha[A.add(a, b)] == A.add(alpha[a], alpha[b])
                   for a in range(nA) for b in range(nA))

    if act.is_trivial():
        alpha = [d2.pi[pi1_inv[a]] for a in range(nA)]
        return (list(range(nG)), alpha) if additive(alpha) else None
    for phi in isomorphisms(G, G):
        alpha = [d2.pi[phi[pi1_inv[a]]] for a in range(nA)]
        if not additive(alpha):
            continue
        if all(alpha[act.act(g, a)] == act.act(phi[g], alpha[a])
               for g in range(nG) for a in range(nA)):
            return phi, alpha
    return None


class ScanEntry:
    """One finder-scan line: found cocycles grouped into relabeling classes.

    classes holds (representative position, members) where members lists
    (position, phi, alpha) witnesses tying each further cocycle to the
    representative.
    """

    __slots__ = ("label", "G", "A", "action", "cocycles", "classes")

    def __init__(self, label, G, A, action, cocycles, classes):
        self.label = label
        self.G = G
        self.A = A
        self.action = action
        self.cocycles = cocycles
        self.classes = classes


def finder_scan(max_order=8):
    """Run the 1-cocycle finder over scan_triples and class the results.

    The twists of two related cocycles differ by the ambient-group
    relabeling (alpha*, phi); callers verify that by exact tensor
    equality, which lets a scan certify one representative per class in
    full and transport the certificates to the rest.
    """
    entries = []
    for label, G, A, action in scan_triples(max_order):
        found = find_bijective_1cocycles(G, A, action)
        classes = []
        for pos, d in enumerate(found):
            placed = False
            for rep, members in classes:
                w = cocycle_relabeling(found[rep], d)
                if w is not None:
                    members.append((pos, w[0], w[1]))
                    placed = True
                    break
            if not placed:
                classes.append((pos, []))
        entries.append(ScanEntry(label, G, A, action, found, classes))
    return entries


def dual_automorphism_perm(A, alpha):
    """The permutation alpha* of A* with <alpha* b, alpha a> = <b, a>.

    A* carries the same tuple indexing as A through the standard pairing;
    alpha* is the inverse transpose of alpha in that identification.
    """
    pairing = PairingChar(A)
    N = pairing.N
    basis = A.basis()
    inv = [0] * A.order
    for a, b in enumerate(alpha):
        inv[b] = a
    out = []
    for b in range(A.order):
        tup = []
        for i, ei in enumerate(basis):
            d = A.factors[i]
            t = pairing.exponent(inv[ei], b)
            if t % (N // d):
                raise CatalogError("dual relabeling left the character "
                                   "lattice")
            tup.append(t // (N // d) % d)
        out.append(A.index_of(tuple(tup)))
    return out


def transport_twist_perm(H, phi, alpha_star):
    """Permutation (b, g) -> (alpha* b, phi g) of the ambient group A* x| G,
    checked to be a group automorphism by a full table sweep."""
    nG = H.G_part.order
    perm = [0] * H.order
    for h in range(H.order):
        b, g = divmod(h, nG)
        perm[h] = alpha_star[b] * nG + phi[g]
    t = H.table
    for x in range(H.order):
        px = perm[x]
        row = t[x]
        for y in range(H.order):
            if perm[row[y]] != t[px][perm[y]]:
                raise CatalogError("relabeling is not a group automorphism")
    return perm


def relabel_tensor(t, perm):
    """Apply a group relabeling to every tensor leg."""
    coeffs = {tuple(perm[i] for i in key): v for key, v in t.coeffs.items()}
    return TensorElement(t.group, t.rank, t.field, coeffs, prune=False)


# ---------------------------------------------------------------------------
# prime-field mirrors


def ambient_conductor(G):
    """Smallest cyclotomic conductor hosting every scalar the pipeline
    needs over G: lcm of 2 (half-sum R_u factors) and the exponent,
    normalized away from 2 mod 4 where the conductor collapses."""
    c = lcm(2, G.exponent())
    if c % 4 == 2:
        c //= 2
    return c


def admissible_primes(G, count=2, start=3):
    """The first odd primes coprime to |G| with the ambient conductor
    dividing p - 1, so F_p carries all needed roots of unity."""
    c = ambient_conductor(G)
    out = []
    p = start
    while len(out) < count:
        if is_prime(p) and G.order % p and (p - 1) % c == 0:
            out.append(p)
        p += 2
    return out


def char_p_mirror(datum, p, seed=0):
    """Re-run the whole realization over F_p and compare certificates.

    p must be an odd prime coprime to |G| with the ambient conductor
    dividing p - 1; the representation matrices are transported entry by
    entry through the designated root of unity.  Returns the agreement
    report over every boolean certificate and integer invariant, plus the
    mirrored datum.
    """
    if datum.field.characteristic:
        raise CatalogError("the mirror source must have characteristic zero")
    q = datum.quadruple
    G = q.G
    c = ambient_conductor(G)
    if p == 2 or not is_prime(p) or G.order % p == 0 or (p - 1) % c:
        raise CatalogError(f"prime {p} is not admissible for {G.name}")
    F = PrimeField(p, root_order=c)
    matrices = [[[F.from_cyc(v) for v in row] for row in mat]
                for mat in q.V.matrices]
    V_p = ProjectiveRep(q.V.group, matrices, F)
    q_p = Quadruple(G, q.members, V_p, q.u)
    mirror = realize_quadruple(q_p, seed=seed)
    report = CheckReport(f"characteristic {p} mirror for {G.name}")
    for key, val in datum.certificates.items():
        mval = mirror.certificates.get(key)
        report.add(f"{key} agrees", val == mval, f"{val} vs {mval}")
    return report, mirror
