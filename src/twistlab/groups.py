"""Finite groups as dense multiplication tables over indices 0..n-1.

Conventions: element 0 need not be the identity for a raw table, but every
constructor here produces tables with identity at index 0.  Abelian groups
carry an explicit cyclic-factor decomposition and expose additive tuple
coordinates; the duality pairing and dual actions are computed purely in
exponent arithmetic, so no field handle is needed at the group level.
"""
from __future__ import annotations

from collections import Counter
from math import gcd, lcm


class GroupError(ValueError):
    pass


# Largest order of an AbelianGroup.  Its dense table has order^2 entries,
# so a larger `factors` line or flag is refused before any table is built.
# Every group the catalog and the constructions build is far smaller.
MAX_ABELIAN_ORDER = 1024


class FiniteGroup:
    """A group given by its full multiplication table."""

    def __init__(self, table, labels=None, name="G", validate=True):
        self.order = len(table)
        self.table = [list(row) for row in table]
        self.name = name
        self.labels = list(labels) if labels else [f"g{i}" for i in range(self.order)]
        if len(self.labels) != self.order:
            raise GroupError("label count does not match order")
        if validate:
            self._validate()
        self.identity = self._find_identity()
        self.inv = self._build_inverses()
        self._orders = None

    def _validate(self):
        n = self.order
        idx = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != idx:
                raise GroupError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != idx:
                raise GroupError(f"column {j} is not a permutation of 0..{n - 1}")
        t = self.table
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = ta[b]
                tb = t[b]
                for c in range(n):
                    if t[tab][c] != ta[tb[c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _find_identity(self):
        for e in range(self.order):
            if all(self.table[e][x] == x for x in range(self.order)):
                return e
        raise GroupError("no identity element")

    def _build_inverses(self):
        e = self.identity
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise GroupError(f"element {a} has no inverse")
        return inv

    # -- basic operations ----------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inv[a]

    def power(self, a, k):
        if k < 0:
            return self.power(self.inv[a], -k)
        out = self.identity
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def element_order(self, a):
        if self._orders is None:
            self._orders = [None] * self.order
        if self._orders[a] is None:
            k, x = 1, a
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            self._orders[a] = k
        return self._orders[a]

    def exponent(self):
        out = 1
        for a in range(self.order):
            out = lcm(out, self.element_order(a))
        return out

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def conjugate(self, g, x):
        """g x g^{-1}"""
        return self.table[self.table[g][x]][self.inv[g]]

    def commutator(self, a, b):
        """a b a^{-1} b^{-1}"""
        return self.table[self.table[a][b]][self.table[self.inv[a]][self.inv[b]]]

    # -- subgroup machinery ----------------------------------------------------

    def center(self):
        t = self.table
        return [a for a in range(self.order)
                if all(t[a][b] == t[b][a] for b in range(self.order))]

    def subgroup_generated(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return sorted(seen)

    def commutator_subgroup(self, members=None):
        if members is None:
            members = range(self.order)
        comms = {self.commutator(a, b) for a in members for b in members}
        return self.subgroup_generated(comms)

    def derived_series(self):
        series = [sorted(range(self.order))]
        while True:
            nxt = self.commutator_subgroup(series[-1])
            if nxt == series[-1]:
                return series
            series.append(nxt)

    def is_solvable(self):
        return self.derived_series()[-1] == [self.identity]

    def subgroup(self, members, name=None):
        """The subgroup on the given closed member list, with its embedding."""
        members = sorted(set(members))
        pos = {m: i for i, m in enumerate(members)}
        table = []
        for a in members:
            row = []
            for b in members:
                c = self.table[a][b]
                if c not in pos:
                    raise GroupError("member set is not closed under multiplication")
                row.append(pos[c])
            table.append(row)
        sub = FiniteGroup(table, labels=[self.labels[m] for m in members],
                          name=name or f"{self.name}-sub{len(members)}", validate=False)
        sub.embedding = members
        return sub

    def generating_sequence(self, classes=None):
        """A short generating sequence, greedily extending by elements of the
        rarest class first (classes[a] is the class of a; one class when
        None), then of large order, then of low index."""
        classes = classes or (None,) * self.order
        size = Counter(classes)
        gens = []
        span = [self.identity]
        for a in sorted(range(self.order), key=lambda a: (
                size[classes[a]], -self.element_order(a), a)):
            if a not in span:
                gens.append(a)
                span = self.subgroup_generated(gens)
                if len(span) == self.order:
                    break
        return gens

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# abelian groups with explicit cyclic factors

class AbelianGroup(FiniteGroup):
    """Direct product of cyclic groups Z/d1 x ... x Z/dr in mixed-radix order."""

    def __init__(self, factors, name=None):
        factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in factors):
            raise GroupError("cyclic factors must be positive")
        factors = tuple(d for d in factors if d > 1) or (1,)
        self.factors = factors
        n = 1
        for d in factors:
            n *= d
        if n > MAX_ABELIAN_ORDER:
            raise GroupError(f"order {n} is above {MAX_ABELIAN_ORDER}")
        self._tuples = []
        t = [0] * len(factors)
        for _ in range(n):
            self._tuples.append(tuple(t))
            for i in range(len(factors) - 1, -1, -1):
                t[i] += 1
                if t[i] < factors[i]:
                    break
                t[i] = 0
        self._index = {tup: i for i, tup in enumerate(self._tuples)}
        table = [[self._index[self._add(a, b)] for b in self._tuples]
                 for a in self._tuples]
        labels = [",".join(map(str, tup)) for tup in self._tuples]
        super().__init__(table, labels=labels,
                         name=name or "x".join(f"C{d}" for d in factors),
                         validate=False)

    def _add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))

    def tuple_of(self, idx):
        return self._tuples[idx]

    def index_of(self, tup):
        return self._index[tuple(x % d for x, d in zip(tup, self.factors))]

    def add(self, i, j):
        return self.table[i][j]

    def neg(self, i):
        return self.inv[i]

    def basis(self):
        """Indices of the standard generators e_1, ..., e_r."""
        out = []
        for i in range(len(self.factors)):
            tup = [0] * len(self.factors)
            tup[i] = 1 % self.factors[i]
            out.append(self._index[tuple(tup)])
        return out

    def invariant_factors(self):
        """Divisor-chain normal form d1 | d2 | ... of the factor list."""
        ds = [d for d in self.factors if d > 1]
        changed = True
        while changed:
            changed = False
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    g = gcd(ds[i], ds[j])
                    l = lcm(ds[i], ds[j])
                    if (g, l) != (ds[i], ds[j]) and (g, l) != (ds[j], ds[i]):
                        ds[i], ds[j] = g, l
                        changed = True
            ds = [d for d in ds if d > 1]
        return tuple(sorted(ds))

    def dual_group(self):
        """The character group, canonically the same cyclic factor list."""
        return AbelianGroup(self.factors, name=self.name + "^")


def make_cyclic(n):
    return AbelianGroup((n,), name=f"C{n}")


def abelian_group(factors, name=None):
    return AbelianGroup(factors, name=name)


def direct_product(G, H, name=None):
    """Direct product; stays an AbelianGroup when both factors are abelian."""
    if isinstance(G, AbelianGroup) and isinstance(H, AbelianGroup):
        return AbelianGroup(G.factors + H.factors,
                            name=name or f"{G.name}x{H.name}")
    n, m = G.order, H.order
    table = []
    for a in range(n):
        for b in range(m):
            row = []
            for c in range(n):
                gc = G.table[a][c]
                hrow = H.table[b]
                row.extend(gc * m + hrow[d] for d in range(m))
            table.append(row)
    labels = [f"({G.labels[a]},{H.labels[b]})" for a in range(n) for b in range(m)]
    out = FiniteGroup(table, labels=labels, name=name or f"{G.name}x{H.name}",
                      validate=False)
    out.factors_pair = (G, H)
    return out


# ---------------------------------------------------------------------------
# standard nonabelian groups

def dihedral(n):
    """Dihedral group of order 2n: elements r^k and s r^k, s r s = r^{-1}."""
    if n < 1:
        raise GroupError("dihedral parameter must be positive")
    order = 2 * n

    def mul(a, b):
        fa, ka = divmod(a, n)
        fb, kb = divmod(b, n)
        if fa == 0:
            return fb * n + (ka + kb) % n if fb == 0 else n + (kb - ka) % n
        return n + (ka + kb) % n if fb == 0 else ((kb - ka) % n)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return FiniteGroup(table, labels=labels, name=f"D{n}", validate=False)


def quaternion8():
    """Q8 = {1,-1,i,-i,j,-j,k,-k} with ij = k."""
    # encode q = sign*unit, units 1,i,j,k as 0..3; index = unit*2 + (sign<0)
    unit_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }

    def mul(a, b):
        ua, sa = a >> 1, -1 if a & 1 else 1
        ub, sb = b >> 1, -1 if b & 1 else 1
        u, s = unit_mul[(ua, ub)]
        s *= sa * sb
        return u * 2 + (1 if s < 0 else 0)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels=labels, name="Q8", validate=False)


def symmetric(n):
    """Symmetric group S_n as permutation tuples (intended for n <= 4)."""
    if n > 5:
        raise GroupError("symmetric(n) is meant for small n")
    perms = [()]
    for k in range(n):
        perms = [p[:i] + (k,) + p[i:] for p in perms for i in range(k + 1)]
    perms.sort()
    # put the identity first
    ident = tuple(range(n))
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels=labels, name=f"S{n}", validate=False)


def alternating4():
    s4 = symmetric(4)

    def sign(p):
        s = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s = -s
        return s

    perms = []
    for i in range(24):
        p = tuple(int(c) for c in s4.labels[i])
        if sign(p) == 1:
            perms.append(i)
    sub = s4.subgroup(perms, name="A4")
    return sub


# ---------------------------------------------------------------------------
# actions and pairings

class GroupAction:
    """An action of G on an abelian group A by automorphisms, as permutations."""

    def __init__(self, G, A, perms, validate=True):
        self.G = G
        self.A = A
        self.perms = [tuple(p) for p in perms]
        if validate:
            self._validate()

    def _validate(self):
        n, m = self.G.order, self.A.order
        if len(self.perms) != n:
            raise GroupError("need one permutation per group element")
        for g in range(n):
            p = self.perms[g]
            if sorted(p) != list(range(m)):
                raise GroupError(f"action of element {g} is not a permutation")
            if p[self.A.identity] != self.A.identity:
                raise GroupError(f"action of element {g} does not fix 0")
            for a in range(m):
                for b in range(m):
                    if p[self.A.add(a, b)] != self.A.add(p[a], p[b]):
                        raise GroupError(f"action of element {g} is not additive")
        for g in range(n):
            for h in range(n):
                gh = self.G.mul(g, h)
                for a in range(m):
                    if self.perms[gh][a] != self.perms[g][self.perms[h][a]]:
                        raise GroupError("action is not a homomorphism")

    def act(self, g, a):
        return self.perms[g][a]

    def is_trivial(self):
        ident = tuple(range(self.A.order))
        return all(p == ident for p in self.perms)


def trivial_action(G, A):
    ident = tuple(range(A.order))
    return GroupAction(G, A, [ident] * G.order, validate=False)


def action_from_generator_images(G, A, gens, images):
    """Build an action from permutations assigned to a generating sequence.

    images[i] is the permutation of A assigned to gens[i].  Every group
    element is expressed as a word in the generators by breadth-first search
    and receives the corresponding composite permutation; the result is
    validated as a homomorphism.
    """
    ident = tuple(range(A.order))
    perms = {G.identity: ident}
    frontier = [G.identity]
    gen_perm = dict(zip(gens, [tuple(p) for p in images]))
    while frontier:
        nxt = []
        for x in frontier:
            for g, pg in gen_perm.items():
                y = G.mul(x, g)
                if y not in perms:
                    px = perms[x]
                    # perm(xg) = perm(x) o perm(g)
                    perms[y] = tuple(px[pg[a]] for a in range(A.order))
                    nxt.append(y)
        frontier = nxt
    if len(perms) != G.order:
        raise GroupError("given elements do not generate the group")
    return GroupAction(G, A, [perms[g] for g in range(G.order)])


class PairingChar:
    """The standard perfect pairing A x A* -> roots of unity in exponent form.

    For A = prod Z/d_i both sides are indexed by the same tuple coordinates and
    e(a, b) = prod_i zeta_{d_i}^{a_i b_i}.  Values are returned as exponents of
    zeta_N with N = lcm(d_i); algebra.AbelianCharacters carries the same
    pairing with values in a field.
    """

    def __init__(self, A):
        self.A = A
        self.N = 1
        for d in A.factors:
            self.N = lcm(self.N, d)

    def exponent(self, a_idx, b_idx):
        """e(a,b) as an exponent of zeta_N."""
        a = self.A.tuple_of(a_idx)
        b = self.A.tuple_of(b_idx)
        t = 0
        for x, y, d in zip(a, b, self.A.factors):
            t += x * y * (self.N // d)
        return t % self.N

    def is_nondegenerate(self):
        rows = {tuple(self.exponent(a, b) for b in range(self.A.order))
                for a in range(self.A.order)}
        return len(rows) == self.A.order


def dual_action(action):
    """The action on A* defined by <g.b, a> = <b, g^{-1}.a>."""
    A = action.A
    pairing = PairingChar(A)
    N = pairing.N
    basis = A.basis()
    perms = []
    for g in range(action.G.order):
        ginv = action.G.inverse(g)
        images = []
        for b in range(A.order):
            tup = []
            for i, ei in enumerate(basis):
                d = A.factors[i]
                t = pairing.exponent(action.act(ginv, ei), b)
                # t must be a multiple of N/d for a valid character value
                if t % (N // d):
                    raise GroupError("dual action left the character lattice")
                tup.append((t // (N // d)) % d)
            images.append(A.index_of(tuple(tup)))
        perms.append(tuple(images))
    return GroupAction(action.G, A, perms)


def semidirect_product(G, Astar, action, name=None):
    """G acting on A*: elements (b, g), product (b,g)(b',g') = (b + g.b', gg').

    The action argument acts on Astar.  Returns a FiniteGroup of order
    |G| * |Astar| with index layout b * |G| + g and embedding helpers.
    """
    if action.A is not Astar or action.G is not G:
        raise GroupError("action must be an action of G on Astar")
    nG, nA = G.order, Astar.order
    table = []
    for b in range(nA):
        for g in range(nG):
            row = [0] * (nA * nG)
            for b2 in range(nA):
                gb2 = action.act(g, b2)
                bb = Astar.add(b, gb2)
                base = bb * nG
                grow = G.table[g]
                for g2 in range(nG):
                    row[b2 * nG + g2] = base + grow[g2]
            table.append(row)
    labels = [f"{Astar.labels[b]}|{G.labels[g]}" for b in range(nA) for g in range(nG)]
    H = FiniteGroup(table, labels=labels,
                    name=name or f"{G.name}:{Astar.name}", validate=False)
    H.G_part = G
    H.A_part = Astar
    H.action = action
    H.embed_G = lambda g: Astar.identity * nG + g
    H.embed_A = lambda b: b * nG + G.identity
    H.parts = lambda h: divmod(h, nG)
    return H


# ---------------------------------------------------------------------------
# isomorphism search (generator images, with label refinement)

def isomorphisms(G, H, limit=None, labels=None, pair_labels=None):
    """Yield isomorphisms G -> H as image lists, by generator backtracking.

    labels, when given, is a pair of per-element sequences of hashable
    values (one for G, one for H): an isomorphism maps every element to
    one with an equal label.  pair_labels, when given, is a pair of
    callables (x, y) -> value, and an isomorphism keeps the value equal on
    every pair of elements.

    Generators come from G.generating_sequence over G's labels, so the
    rarest label class is spent first; each one's candidate images share
    its order and label.  A partial assignment is propagated over the
    subgroup it generates, rejecting clashing products and labels, and a
    new generator's pair labels are checked against every earlier one at
    once.  A complete assignment is checked for multiplicativity and
    pair labels on all pairs.
    """
    n = G.order
    if n != H.order:
        return
    lab1, lab2 = labels or ((None,) * n, (None,) * n)
    key1 = [(G.element_order(a), lab1[a]) for a in range(n)]
    pools = {}
    for h in range(n):
        pools.setdefault((H.element_order(h), lab2[h]), []).append(h)
    # equal class sizes; this also matches the identities' labels, which
    # propagation never compares
    if any(len(pools.get(k, ())) != c for k, c in Counter(key1).items()):
        return
    gens = G.generating_sequence(lab1)
    cands = [pools[key1[g]] for g in gens]
    pair1, pair2 = pair_labels or (None, None)
    t1, t2 = G.table, H.table
    found = 0

    def propagate(assign):
        images = {G.identity: H.identity}
        frontier = [G.identity]
        while frontier:
            nxt = []
            for x in frontier:
                ix = images[x]
                for g, hg in assign:
                    y, hy = t1[x][g], t2[ix][hg]
                    known = images.get(y)
                    if known is None:
                        if labels and lab1[y] != lab2[hy]:
                            return None
                        images[y] = hy
                        nxt.append(y)
                    elif known != hy:
                        return None
            frontier = nxt
        return images

    def complete(images):
        if len(images) != n:
            return None
        img = [images[a] for a in range(n)]
        if len(set(img)) != n:
            return None
        for a, ia in enumerate(img):
            row2 = t2[ia]
            if [img[x] for x in t1[a]] != [row2[y] for y in img]:
                return None
            if pair_labels and [pair1(a, b) for b in range(n)] != \
                    [pair2(ia, y) for y in img]:
                return None
        return img

    def search(assign, images):
        nonlocal found
        if limit is not None and found >= limit:
            return
        k = len(assign)
        if k == len(gens):
            img = complete(images)
            if img is not None:
                found += 1
                yield img
            return
        g = gens[k]
        for h in cands[k]:
            if pair_labels and any(pair1(g, gp) != pair2(h, hp)
                                   for gp, hp in assign):
                continue
            trial = assign + [(g, h)]
            extended = propagate(trial)
            if extended is not None:
                yield from search(trial, extended)

    yield from search([], {G.identity: H.identity})


def find_isomorphism(G, H):
    return next(isomorphisms(G, H, limit=1), None)


def is_isomorphic(G, H):
    return find_isomorphism(G, H) is not None
