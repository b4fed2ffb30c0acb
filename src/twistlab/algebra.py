"""Sparse tensor algebra over group algebras, and exact linear algebra.

A TensorElement is an element of k[G]^(tensor rank) stored as a dict from
index tuples to nonzero scalars.  Products are componentwise group-algebra
convolutions.  Inversion works inside the group algebra of the subgroup S of
G^rank generated by the support, by the first route that applies:

- central split: the center Z of S is nontrivial, or S is trivial; k[S]
  splits over the characters of Z into twisted group algebras of S/Z, and
  t is inverted in each by a dense solve.  Abelian S is the case Z = S:
  one coset, so t is inverted pointwise on the characters of S.
- Krylov: otherwise, or when the field lacks the roots of unity or its
  characteristic divides |Z|; the minimal polynomial of left
  multiplication by t is found by exact elimination.

Every result is verified as a right inverse, t * inv = 1, which makes it
two-sided (see algebra_invert).  AbelianCharacters is
the shared character layer: the zeta_N power table and the mixed-radix
transform (_axis_dft along each axis) behind the central split, the
character battery of catalog, and the character sums of movshev and
constructions.

mat_rank certifies a rank mod p before it eliminates over Q(zeta_N).  For a
prime p = 1 mod N and a primitive N-th root w mod p, zeta_N -> w is a ring
map Z[1/D][zeta_N] -> F_p for every D prime to p.  Minors map to minors, so
the rank mod p of the rows whose denominators p does not divide is at most
the true rank.  When that lower bound meets a proven upper bound (the matrix
size, or d - 1 for the commutator rows of an algebra with an exactly checked
nonzero central unit) it is the rank; otherwise the rank comes from exact
elimination.  Only "full rank" and "center dimension 1" are ever read off
mod p, and both are then exact (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5).
"""
from __future__ import annotations

import functools
import itertools
from math import gcd, lcm

from .scalars import (MAX_CONDUCTOR, Cyc, ScalarError, cyc_residue,
                      factorize, is_prime, root_powers)


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact dense linear algebra over a field handle

def mat_rref(rows, ncols):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def mat_rank(rows, ncols, upper=None):
    """Rank of the matrix.

    upper is a proven upper bound on the rank (default min(rows, ncols)).
    When a rank mod p reaches it, that is the rank; otherwise the rank is
    found by exact elimination.
    """
    if not rows:
        return 0
    target = min(len(rows), ncols)
    if upper is not None:
        target = min(target, upper)
    if _modular_rank(rows, target) == target:
        return target
    work = [list(r) for r in rows]
    return len(mat_rref(work, ncols))


@functools.cache
def _modular_prime(n):
    """The largest prime p < 2^31 with p = 1 mod n, and a primitive n-th
    root of unity mod p."""
    p = (2 ** 31 - 2) // n * n + 1
    while not is_prime(p):
        p -= n
    parts = list(factorize(n))
    for g in itertools.count(2):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in parts):
            return p, w


def _modular_rank(rows, target):
    """A lower bound on the rank of a matrix of Cyc entries, or None for
    any other entries or an lcm of conductors above MAX_CONDUCTOR.

    The rank of the image under Z[1/D][zeta_N] -> F_p is at most the true
    rank, and so is the rank of any subset of rows: a row whose
    denominator vanishes mod p is dropped.  Rows are inserted one at a
    time into an echelon basis mod p until the rank reaches target.
    """
    conductors = set()
    for row in rows:
        for x in row:
            if type(x) is not Cyc:
                return None
            conductors.add(x.n)
    n = lcm(*conductors)
    if n > MAX_CONDUCTOR:
        return None
    p, w = _modular_prime(n)
    powers = {c: root_powers(pow(w, n // c, p), c, p) for c in conductors}
    basis = []
    for row in rows:
        vec = []
        for x in row:
            v = cyc_residue(x, p, powers[x.n]) if x else 0
            if v is None:
                break
            vec.append(v)
        else:
            for c, b in basis:
                f = vec[c]
                if f:
                    vec = [(a - f * e) % p for a, e in zip(vec, b)]
            c = next((c for c, a in enumerate(vec) if a), None)
            if c is not None:
                inv = pow(vec[c], -1, p)
                basis.append((c, [a * inv % p for a in vec]))
                if len(basis) == target:
                    break
    return len(basis)


def mat_nullspace(rows, ncols, field):
    """Basis of the right nullspace of the matrix."""
    work = [list(r) for r in rows]
    pivots = mat_rref(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def mat_solve(rows, rhs, ncols, field):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  rhs may be a list of vectors (matrix);
    then a list of solution vectors is returned.
    """
    single = rhs and not isinstance(rhs[0], list)
    bcols = [list(rhs)] if single else [list(c) for c in rhs]
    work = [list(r) + [bc[i] for bc in bcols] for i, r in enumerate(rows)]
    pivots = mat_rref(work, ncols)
    for i in range(len(work)):
        if i < len(pivots):
            continue
        for j in range(ncols, ncols + len(bcols)):
            if work[i][j]:
                return None
    outs = []
    for j in range(len(bcols)):
        vec = [field.zero()] * ncols
        for r, pc in enumerate(pivots):
            vec[pc] = work[r][ncols + j]
        outs.append(vec)
    return outs[0] if single else outs


def mat_inverse(rows, field):
    n = len(rows)
    ident = [[field.one() if i == j else field.zero() for j in range(n)]
             for i in range(n)]
    sol = mat_solve(rows, ident, n, field)
    if sol is None:
        raise AlgebraError("matrix is singular")
    # mat_solve returned columns of the inverse
    return [[sol[j][i] for j in range(n)] for i in range(n)]


def mat_mul(a, b, field):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[field.zero()] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] = oi[j] + x * bt[j]
    return out


def mat_vec(a, v, field):
    out = []
    for row in a:
        acc = field.zero()
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def mat_ratio(mat, base, field):
    """The scalar r with mat = r * base, or None if no such scalar exists."""
    pivot = None
    for i, row in enumerate(base):
        for j, v in enumerate(row):
            if v:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        return field.zero() if not any(any(r) for r in mat) else None
    ratio = mat[pivot[0]][pivot[1]] * base[pivot[0]][pivot[1]].inverse()
    for row, brow in zip(mat, base):
        for m, b in zip(row, brow):
            if (m != b * ratio) if b else m:
                return None
    return ratio


def vec_ratio(vec, base, field):
    """The scalar r with vec = r * base for dict vectors, or None."""
    pivot = next((k for k, v in base.items() if v), None)
    if pivot is None:
        return field.zero() if not any(vec.values()) else None
    ratio = vec.get(pivot, field.zero()) * base[pivot].inverse()
    for k in set(vec) | set(base):
        left = vec.get(k, field.zero())
        right = base.get(k, field.zero()) * ratio
        if left != right:
            return None
    return ratio


# ---------------------------------------------------------------------------
# tensors over group algebras

class TensorElement:
    """Element of k[G]^(rank) as a sparse dict from index tuples to scalars."""

    __slots__ = ("group", "rank", "field", "coeffs")

    def __init__(self, group, rank, field, coeffs=None, prune=True):
        self.group = group
        self.rank = rank
        self.field = field
        if coeffs is None:
            self.coeffs = {}
        elif prune:
            self.coeffs = {k: v for k, v in coeffs.items() if v}
        else:
            self.coeffs = dict(coeffs)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(group, rank, field):
        return TensorElement(group, rank, field)

    @staticmethod
    def unit(group, rank, field):
        e = group.identity
        return TensorElement(group, rank, field, {(e,) * rank: field.one()},
                             prune=False)

    @staticmethod
    def basis(group, key, field):
        key = tuple(key)
        return TensorElement(group, len(key), field, {key: field.one()},
                             prune=False)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            s = v if w is None else w + v
            if s:
                out[k] = s
            elif w is not None:
                del out[k]
        return TensorElement(self.group, self.rank, self.field, out, prune=False)

    def __sub__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            s = -v if w is None else w - v
            if s:
                out[k] = s
            elif w is not None:
                del out[k]
        return TensorElement(self.group, self.rank, self.field, out, prune=False)

    def __neg__(self):
        return TensorElement(self.group, self.rank, self.field,
                             {k: -v for k, v in self.coeffs.items()}, prune=False)

    def scale(self, s):
        if not s:
            return TensorElement.zero(self.group, self.rank, self.field)
        return TensorElement(self.group, self.rank, self.field,
                             {k: s * v for k, v in self.coeffs.items()}, prune=False)

    # -- multiplication -----------------------------------------------------------

    def __mul__(self, other):
        self._compat(other)
        table = self.group.table
        out = {}
        if self.rank == 1:
            for (a,), x in self.coeffs.items():
                row = table[a]
                for (b,), y in other.coeffs.items():
                    k = (row[b],)
                    v = x * y
                    w = out.get(k)
                    out[k] = v if w is None else w + v
        elif self.rank == 2:
            for (a1, a2), x in self.coeffs.items():
                r1, r2 = table[a1], table[a2]
                for (b1, b2), y in other.coeffs.items():
                    k = (r1[b1], r2[b2])
                    v = x * y
                    w = out.get(k)
                    out[k] = v if w is None else w + v
        elif self.rank == 3:
            for (a1, a2, a3), x in self.coeffs.items():
                r1, r2, r3 = table[a1], table[a2], table[a3]
                for (b1, b2, b3), y in other.coeffs.items():
                    k = (r1[b1], r2[b2], r3[b3])
                    v = x * y
                    w = out.get(k)
                    out[k] = v if w is None else w + v
        else:
            for ka, x in self.coeffs.items():
                for kb, y in other.coeffs.items():
                    k = tuple(table[a][b] for a, b in zip(ka, kb))
                    v = x * y
                    w = out.get(k)
                    out[k] = v if w is None else w + v
        return TensorElement(self.group, self.rank, self.field, out)

    def _compat(self, other):
        if not isinstance(other, TensorElement):
            raise AlgebraError("expected a TensorElement")
        if other.group is not self.group or other.rank != self.rank:
            raise AlgebraError("tensor shapes or groups do not match")

    # -- structure maps ------------------------------------------------------------

    def permute_legs(self, perm):
        """New tensor with legs reordered: new key[i] = old key[perm[i]]."""
        out = {}
        for k, v in self.coeffs.items():
            out[tuple(k[p] for p in perm)] = v
        return TensorElement(self.group, self.rank, self.field, out, prune=False)

    def swap(self):
        if self.rank != 2:
            raise AlgebraError("swap needs a rank-2 tensor")
        return self.permute_legs((1, 0))

    def embed(self, positions, rank):
        """Place legs at the given 1-based positions of a larger tensor.

        Remaining slots are filled with the group identity, e.g. J.embed((1, 2), 3)
        is J tensor 1.
        """
        if len(positions) != self.rank:
            raise AlgebraError("positions must match the tensor rank")
        e = self.group.identity
        out = {}
        for k, v in self.coeffs.items():
            key = [e] * rank
            for pos, a in zip(positions, k):
                key[pos - 1] = a
            out[tuple(key)] = v
        return TensorElement(self.group, rank, self.field, out, prune=False)

    def coproduct_leg(self, leg):
        """Apply the group-algebra coproduct g -> g (x) g to one 0-based leg."""
        out = {}
        for k, v in self.coeffs.items():
            key = k[:leg] + (k[leg], k[leg]) + k[leg + 1:]
            w = out.get(key)
            out[key] = v if w is None else w + v
        return TensorElement(self.group, self.rank + 1, self.field, out)

    def counit_leg(self, leg):
        """Apply the counit (every g -> 1) to one 0-based leg."""
        out = {}
        for k, v in self.coeffs.items():
            key = k[:leg] + k[leg + 1:]
            w = out.get(key)
            s = v if w is None else w + v
            out[key] = s
        return TensorElement(self.group, self.rank - 1, self.field, out)

    def antipode_leg(self, leg):
        """Apply g -> g^{-1} to one 0-based leg."""
        inv = self.group.inv
        out = {}
        for k, v in self.coeffs.items():
            key = k[:leg] + (inv[k[leg]],) + k[leg + 1:]
            w = out.get(key)
            out[key] = v if w is None else w + v
        return TensorElement(self.group, self.rank, self.field, out)

    def merge_legs(self, i, j):
        """Multiply leg j into leg i (group product), dropping leg j."""
        table = self.group.table
        out = {}
        for k, v in self.coeffs.items():
            prod = table[k[i]][k[j]]
            key = tuple(prod if t == i else x
                        for t, x in enumerate(k) if t != j)
            w = out.get(key)
            out[key] = v if w is None else w + v
        return TensorElement(self.group, self.rank - 1, self.field, out)

    def outer(self, other):
        """Tensor product: concatenate legs."""
        if other.group is not self.group:
            raise AlgebraError("groups do not match")
        out = {}
        for ka, x in self.coeffs.items():
            for kb, y in other.coeffs.items():
                v = x * y
                if v:
                    out[ka + kb] = v
        return TensorElement(self.group, self.rank + other.rank, self.field,
                             out, prune=False)

    # -- inspection ---------------------------------------------------------------

    def get(self, key):
        v = self.coeffs.get(tuple(key))
        return v if v is not None else self.field.zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.group is other.group and self.rank == other.rank
                and self.coeffs == other.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        return (f"TensorElement(rank={self.rank}, group={self.group.name}, "
                f"terms={len(self.coeffs)})")


# -- group Hopf structure on rank-1 elements ---------------------------------

def hopf_coproduct(x):
    """Delta(g) = g (x) g, extended linearly."""
    if x.rank != 1:
        raise AlgebraError("coproduct applies to rank-1 elements")
    return x.coproduct_leg(0)


def hopf_counit(x):
    if x.rank != 1:
        raise AlgebraError("counit applies to rank-1 elements")
    acc = x.field.zero()
    for v in x.coeffs.values():
        acc = acc + v
    return acc


def hopf_antipode(x):
    """S(g) = g^{-1}, extended linearly."""
    if x.rank != 1:
        raise AlgebraError("antipode applies to rank-1 elements")
    return x.antipode_leg(0)


def regular_trace(x):
    """Trace of left multiplication by x on the group algebra."""
    if x.rank != 1:
        raise AlgebraError("regular_trace applies to rank-1 elements")
    e = x.group.identity
    coeff = x.coeffs.get((e,))
    if coeff is None:
        return x.field.zero()
    return coeff * x.field.from_int(x.group.order)


# ---------------------------------------------------------------------------
# inversion inside the support subgroup

def support_subgroup(t):
    """Elements of G^rank generated by the support of t, as a sorted list."""
    table = t.group.table
    gens = list(t.coeffs)
    e = (t.group.identity,) * t.rank
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(table[a][b] for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def abelian_basis(members, mul, ident):
    """Cyclic decomposition of an abelian subgroup given as a member list.

    Returns (orders, dlog) where dlog maps each member to its exponent tuple
    with respect to a basis whose factor sizes form the returned list.
    Returns None when an adjustment or covering step fails, which certifies
    the input was not abelian; correctness never depends on the caller's
    abelianness check.
    """
    dlog = {ident: ()}
    orders = []
    powers = []                        # powers[i][k] = basis[i]^k
    while len(dlog) < len(members):
        best, best_d, best_tail = None, 1, None
        for h in members:
            if h in dlog:
                continue
            p, k = h, 1
            while p not in dlog:
                p = mul(p, h)
                k += 1
            if k > best_d:
                best, best_d, best_tail = h, k, p
        if best is None:
            return None
        # adjust the pick so its true order drops to its coset order: divide
        # out the tail best^d = prod basis_i^{t_i} by solving s_i*d = t_i
        # modulo the factor size
        d = best_d
        adj = best
        for i, (di, ti) in enumerate(zip(orders, dlog[best_tail])):
            if ti:
                g = gcd(d, di)
                if ti % g:
                    return None
                si = (ti // g) * pow(d // g, -1, di // g) % (di // g)
                if si:
                    adj = mul(adj, powers[i][di - si])
        pw = [ident]
        for _ in range(d - 1):
            pw.append(mul(pw[-1], adj))
        if mul(pw[-1], adj) != ident:
            return None
        new_dlog = {}
        for elem, coords in dlog.items():
            for j in range(d):
                new_dlog[mul(elem, pw[j])] = coords + (j,)
        if len(new_dlog) != len(dlog) * d:
            return None
        dlog = new_dlog
        orders.append(d)
        powers.append(pw)
    return orders, dlog


def _axis_dft(vals, sizes, strides, axis, roots, zero):
    """Transform one mixed-radix axis of a flat array by the root table."""
    d = sizes[axis]
    stride = strides[axis]
    block = stride * d
    out = list(vals)
    for base in range(0, len(vals), block):
        for off in range(stride):
            start = base + off
            col = vals[start:start + block:stride]
            for jp in range(d):
                acc = zero
                for j in range(d):
                    x = col[j]
                    if x:
                        acc = acc + roots[(j * jp) % d] * x
                out[start + jp * stride] = acc
    return out


def _strides(sizes):
    """Mixed-radix strides of a flat array, first size slowest."""
    strides = [0] * len(sizes)
    acc = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]
    return strides


class AbelianCharacters:
    """The characters of a finite abelian group in fixed cyclic coordinates.

    The group is Z/d_1 x ... x Z/d_m for the given orders, and coords maps
    each member to its coordinate tuple.  Characters carry the same
    coordinates: chi_s(g) = zeta_N^e(s, g) with e(s, g) = sum_i s_i g_i N/d_i
    and N = lcm(d_i), so adding indices multiplies characters and index 0
    is the trivial character.  powers[k] is zeta_N^k.

    Values live in flat mixed-radix arrays, first coordinate slowest; pos
    maps each member to its slot, which is also the index of the character
    with the same coordinates.  A rank-r array holds n^r values, first leg
    slowest.  forward sends x to s -> sum_g chi_s(g) x_g on every leg;
    inverse does the same with conjugate characters, so inverse(forward(x))
    is n^r x.
    """

    __slots__ = ("orders", "field", "N", "powers", "pos")

    def __init__(self, orders, coords, field):
        self.orders = tuple(orders)
        self.field = field
        self.N = N = lcm(*self.orders)
        root = field.primitive_root(N)
        powers = [field.one()]
        for _ in range(N - 1):
            powers.append(powers[-1] * root)
        self.powers = powers
        strides = _strides(self.orders)
        self.pos = {g: sum(c * s for c, s in zip(cs, strides))
                    for g, cs in coords.items()}

    @classmethod
    def of_group(cls, group, field):
        """Characters of an AbelianGroup in its own factor coordinates; the
        slot of each member is its group index."""
        factors = getattr(group, "factors", None)
        if factors is None:
            raise AlgebraError(f"{group.name} is not given by cyclic factors")
        return cls(factors, {g: group.tuple_of(g) for g in range(group.order)},
                   field)

    def exponents(self):
        """Dense table e[s][p] over character indices s and slots p: chi_s
        takes the member in slot p to powers[e[s][p]]."""
        N = self.N
        digits = list(itertools.product(*(range(d) for d in self.orders)))
        weights = [N // d for d in self.orders]
        scaled = [[c * w for c, w in zip(g, weights)] for g in digits]
        return [[sum(a * b for a, b in zip(s, g)) % N for g in scaled]
                for s in digits]

    def forward(self, vals, rank=1):
        return self._transform(vals, rank, 1)

    def inverse(self, vals, rank=1):
        return self._transform(vals, rank, -1)

    def _transform(self, vals, rank, sign):
        N, powers = self.N, self.powers
        sizes = self.orders * rank
        strides = _strides(sizes)
        zero = self.field.zero()
        for axis, d in enumerate(sizes):
            roots = [powers[sign * (N // d) * j % N] for j in range(d)]
            vals = _axis_dft(vals, sizes, strides, axis, roots, zero)
        return vals


def _central_split_invert(t, members):
    """Invert t through the character decomposition of the center Z of S.

    k[S] splits over characters chi of Z as a sum of twisted group algebras
    of S/Z; t is inverted in each component by a dense linear solve and
    reassembled.  For abelian S, Z = S and S/Z is one coset, so each
    component is the 1x1 solve chi(t) y = 1: t is inverted pointwise on
    the characters of S.  Returns None when the split does not apply
    (trivial center of a nontrivial S, missing roots, bad characteristic);
    a singular component certifies a zero divisor and raises.
    """
    field = t.field
    table = t.group.table
    invtab = t.group.inv

    def mul(x, y):
        return tuple(table[a][b] for a, b in zip(x, y))

    gens = list(t.coeffs)
    center = [s for s in members if all(mul(s, g) == mul(g, s) for g in gens)]
    nz = len(center)
    if nz == 1 and len(members) > 1:
        return None
    if field.characteristic and nz % field.characteristic == 0:
        return None
    ident = (t.group.identity,) * t.rank
    decomp = abelian_basis(center, mul, ident)
    if decomp is None:
        return None
    try:
        chars = AbelianCharacters(*decomp, field)
    except ScalarError:
        return None
    zpos = chars.pos
    # build coset transversal of Z in S
    coset_of = {}
    reps = []
    for s in members:
        if s in coset_of:
            continue
        q = len(reps)
        reps.append(s)
        for z in center:
            coset_of[mul(s, z)] = q
    nq = len(reps)
    rep_inv = [tuple(invtab[a] for a in r) for r in reps]
    # z part of any element: rep(q)^-1 * s lies in Z
    zpart = {s: mul(rep_inv[coset_of[s]], s) for s in members}
    zero = field.zero()
    # t rep(q') = sum_key t_key rep(q'') z with z = zpart(key rep(q')), and z
    # acts on the chi-component by chi(z); so entry (q'', q') of left
    # multiplication by t in every component is one transform over z
    blocks = {}
    for qp in range(nq):
        for key, c in t.coeffs.items():
            prod = mul(key, reps[qp])
            vec = blocks.setdefault((coset_of[prod], qp), [zero] * nz)
            p = zpos[zpart[prod]]
            vec[p] = vec[p] + c
    entries = [(qpp, qp, chars.forward(vec))
               for (qpp, qp), vec in blocks.items()]
    unit_vec = [field.one() if q == coset_of[ident] else zero for q in range(nq)]
    inv_comps = []
    for cpos in range(nz):
        mrows = [[zero] * nq for _ in range(nq)]
        for qpp, qp, vals in entries:
            mrows[qpp][qp] = vals[cpos]
        sol = mat_solve(mrows, unit_vec, nq, field)
        if sol is None:
            raise AlgebraError("element is a zero divisor (not invertible)")
        inv_comps.append(sol)
    # reassemble: coefficient at rep(q)*z is |Z|^-1 sum_chi chi(z)^-1 y_chi[q]
    by_coset = [chars.inverse([comp[q] for comp in inv_comps])
                for q in range(nq)]
    scale = field.from_int(nz).inverse()
    coeffs = {}
    for s in members:
        acc = by_coset[coset_of[s]][zpos[zpart[s]]]
        if acc:
            coeffs[s] = acc * scale
    return TensorElement(t.group, t.rank, field, coeffs, prune=False)


def algebra_invert(t):
    """Two-sided inverse of t in k[G]^(rank), or raise AlgebraError.

    Works in the group algebra of the subgroup S generated by the support.
    When the center Z of S is nontrivial (or S is trivial) and the field
    has the needed roots of unity, the inversion splits over the
    characters of Z; for abelian S that is Z = S and pointwise inversion.
    Otherwise the minimal polynomial of left multiplication by t on k[S] is
    found by exact Krylov iteration; a nonzero constant term yields the
    inverse, a zero constant term certifies a zero divisor.

    The result is always verified, on one side: k[G]^(rank) is a
    finite-dimensional associative algebra, so t * inv = 1 makes left
    multiplication by t onto, hence one-to-one, and then
    t * (inv * t - 1) = t - t = 0 gives inv * t = 1.
    """
    if not t.coeffs:
        raise AlgebraError("zero element is not invertible")
    members = support_subgroup(t)
    inv = _central_split_invert(t, members)
    if inv is None:
        inv = _krylov_invert(t, members)
    if t * inv != TensorElement.unit(t.group, t.rank, t.field):
        raise AlgebraError("inverse verification failed")
    return inv


def _krylov_invert(t, members):
    """Invert t through the minimal polynomial of left multiplication by t
    on k[S], found by exact Krylov iteration by step n, as 1, t, ..., t^n
    are dependent in the n-dim k[S]; raises on a zero divisor."""
    n = len(members)
    index = {m: i for i, m in enumerate(members)}
    field = t.field
    zero = field.zero()
    table = t.group.table
    # each support element permutes S by left translation; precompute
    perms = []
    for key, val in t.coeffs.items():
        perm = [index[tuple(table[a][b] for a, b in zip(key, m))]
                for m in members]
        perms.append((perm, val))

    def apply_fast(vec):
        out = [zero] * n
        for perm, val in perms:
            for i, x in enumerate(vec):
                if x:
                    j = perm[i]
                    out[j] = out[j] + val * x
        return out

    e_idx = index[(t.group.identity,) * t.rank]
    v = [zero] * n
    v[e_idx] = field.one()
    powers = [v]                       # powers[k] = t^k as dense vector
    # echelon rows with their expression in terms of the Krylov vectors
    ech = []                           # list of (pivot, row, combo)
    _ech_insert(ech, list(v), [field.one()])
    for step in range(1, n + 1):
        v = apply_fast(powers[-1])
        powers.append(v)
        c = [zero] * step + [field.one()]
        row = list(v)
        if _ech_reduce(ech, row, c):
            # dependence: sum_i c_i t^i = 0
            if not c[0]:
                raise AlgebraError("element is a zero divisor (not invertible)")
            inv_c0 = (-c[0]).inverse()
            acc = [zero] * n
            for i in range(1, len(c)):
                if c[i]:
                    f = c[i] * inv_c0
                    pw = powers[i - 1]
                    for j in range(n):
                        if pw[j]:
                            acc[j] = acc[j] + f * pw[j]
            coeffs = {members[j]: acc[j] for j in range(n) if acc[j]}
            return TensorElement(t.group, t.rank, field, coeffs, prune=False)
        _ech_insert(ech, row, c)


def _ech_reduce(ech, row, combo=None):
    """Reduce row in place against the echelon ech of (pivot, row, combo)
    triples, and combo alongside when given (it must be at least as long
    as every echelon combo); True when the row reduces to zero."""
    for pivot, erow, ecombo in ech:
        x = row[pivot]
        if x:
            for j in range(len(row)):
                if erow[j]:
                    row[j] = row[j] - x * erow[j]
            if combo is not None:
                for j in range(len(ecombo)):
                    if ecombo[j]:
                        combo[j] = combo[j] - x * ecombo[j]
    return not any(row)


def _ech_insert(ech, row, combo=None):
    """Append a row already reduced by _ech_reduce to a nonzero row,
    normalized at its first nonzero entry, with its combo."""
    pivot = next(i for i, x in enumerate(row) if x)
    inv = row[pivot].inverse()
    ech.append((pivot, [x * inv for x in row],
                None if combo is None else [c * inv for c in combo]))


def left_regular_matrix(t, members=None):
    """Dense matrix of left multiplication by t on k[S] (oracle helper)."""
    members = members or support_subgroup(t)
    n = len(members)
    index = {m: i for i, m in enumerate(members)}
    field = t.field
    zero = field.zero()
    table = t.group.table
    mat = [[zero] * n for _ in range(n)]
    for key, val in t.coeffs.items():
        for j, m in enumerate(members):
            target = tuple(table[a][b] for a, b in zip(key, m))
            i = index[target]
            mat[i][j] = mat[i][j] + val
    return mat, members


# ---------------------------------------------------------------------------
# structure-constant algebras (sparse)

class StructureConstantAlgebra:
    """A finite-dimensional algebra given by sparse structure constants.

    m[i][j] is the product of basis elements i and j as a dict index -> scalar.
    """

    def __init__(self, m, unit, field, labels=None, validate=True):
        self.dim = len(m)
        self.m = m
        self.unit = {k: v for k, v in unit.items() if v}
        self.field = field
        self.labels = list(labels) if labels else [f"Y{i}" for i in range(self.dim)]
        if validate:
            self.validate()

    def validate(self):
        """Check the unit axioms and associativity on every basis triple."""
        d = self.dim
        for i in range(d):
            u = self.mult_vec(self.unit, {i: self.field.one()})
            v = self.mult_vec({i: self.field.one()}, self.unit)
            if u != {i: self.field.one()} or v != {i: self.field.one()}:
                raise AlgebraError(f"unit axiom fails at basis element {i}")
        for i in range(d):
            for j in range(d):
                ij = self.m[i][j]
                for k in range(d):
                    left = self.mult_vec(ij, {k: self.field.one()})
                    right = self.mult_vec({i: self.field.one()}, self.m[j][k])
                    if left != right:
                        raise AlgebraError(
                            f"associativity fails at ({i},{j},{k})")

    def mult_vec(self, u, v):
        out = {}
        for i, x in u.items():
            mi = self.m[i]
            for j, y in v.items():
                xy = x * y
                if not xy:
                    continue
                for k, c in mi[j].items():
                    w = out.get(k)
                    s = xy * c if w is None else w + xy * c
                    if s:
                        out[k] = s
                    elif w is not None:
                        del out[k]
        return out

    def is_commutative(self):
        return all(self.m[i][j] == self.m[j][i]
                   for i in range(self.dim) for j in range(i))

    def center_dimension(self):
        """Dimension of {z : zx = xz for all basis x}, the nullspace of the
        commutator rows.

        A nonzero central unit, checked exactly, bounds their rank by
        d - 1, which mat_rank may then certify mod p.
        """
        d = self.dim
        one = self.field.one()
        central = bool(self.unit) and all(
            self.mult_vec(self.unit, {i: one}) ==
            self.mult_vec({i: one}, self.unit) for i in range(d))
        zero = self.field.zero()
        rows = []
        for j in range(d):
            cols = {}
            for i in range(d):
                for k, c in self.m[i][j].items():
                    row = cols.setdefault(k, [zero] * d)
                    row[i] = row[i] + c
                for k, c in self.m[j][i].items():
                    row = cols.setdefault(k, [zero] * d)
                    row[i] = row[i] - c
            for row in cols.values():
                if any(row):
                    rows.append(row)
        return d - mat_rank(rows, d, d - 1 if central else None)

    def abelianization_dimension(self):
        """Dimension of A / ([A,A]), the two-sided ideal closure of commutators.

        The ideal grows as an echelon basis: first the commutators of basis
        elements, then the products of each echelon row, in the order the
        rows were found, with every basis element on both sides.
        """
        d = self.dim
        zero, one = self.field.zero(), self.field.one()
        ech = []

        def to_dense(vecdict):
            out = [zero] * d
            for k, v in vecdict.items():
                out[k] = v
            return out

        def spanning_rows():
            for i in range(d):
                for j in range(i):
                    comm = dict(self.m[i][j])
                    for k, v in self.m[j][i].items():
                        w = comm.get(k)
                        s = -v if w is None else w - v
                        if s:
                            comm[k] = s
                        elif w is not None:
                            del comm[k]
                    if comm:
                        yield to_dense(comm)
            # ech grows while this runs; each row is multiplied once
            k = 0
            while k < len(ech):
                vd = {i: x for i, x in enumerate(ech[k][1]) if x}
                k += 1
                for i in range(d):
                    b = {i: one}
                    for prod in (self.mult_vec(b, vd), self.mult_vec(vd, b)):
                        if prod:
                            yield to_dense(prod)

        for row in spanning_rows():
            if not _ech_reduce(ech, row):
                _ech_insert(ech, row)
        return d - len(ech)


def dualize_coalgebra(delta_rows, counit, field, labels=None, validate=True):
    """Dual algebra of a coalgebra given by Delta(x_k) coefficient dicts.

    delta_rows[k] maps (i, j) to the coefficient of x_i (x) x_j in Delta(x_k);
    counit[k] is eps(x_k).  The dual basis Y_k multiplies by
    (Y_i * Y_j)(x_k) = Delta(x_k)[i, j].  Coassociativity and the counit laws
    of the input are certified through the associativity and unit checks of
    the output algebra.
    """
    d = len(delta_rows)
    m = [[{} for _ in range(d)] for _ in range(d)]
    for k, row in enumerate(delta_rows):
        items = row.coeffs.items() if isinstance(row, TensorElement) else row.items()
        for (i, j), v in items:
            if v:
                m[i][j][k] = v
    unit = {k: v for k, v in enumerate(counit) if v}
    return StructureConstantAlgebra(m, unit, field, labels=labels,
                                    validate=validate)
