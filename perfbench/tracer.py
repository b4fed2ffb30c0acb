"""Span tracing and scalar counting for twistlab, installed from outside.

The package binds names with `from .algebra import algebra_invert` and
similar, so replacing the attribute of the defining module alone misses most
call sites.  `Patch` finds every module attribute and class attribute in the
package that *is* a chosen function object, swaps each of them for a
wrapper, and puts every original back on `restore`.

`Tracer` wraps the public functions and methods of each layer (one layer per
package module) with spans that record name, parent, start, end and sizes.
Spans stay in memory; `self_times` and `layer_metrics` reduce them after the
pass.  The scalars layer is never spanned: an order-16 catalog pass makes
millions of `Cyc` products, and a wrapper on each would swamp the self time
of every other span; its helpers, such as `parse_scalar` once per document
entry, count in their caller's self time.  `ScalarCounter` counts scalar
arithmetic in a pass of its own and keeps a thinned sample of their operands
for the per-op timings.
"""

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "groups", "algebra", "twists", "movshev",
          "constructions", "catalog", "formats", "cli")

# Public methods that are per-element accessors: up to 120k calls in one
# pass at under a microsecond each.  A span on each would measure the
# tracer, not the layer, so they stay unwrapped and their time counts in
# the caller's self time.
HOT = frozenset({
    "groups.FiniteGroup.mul", "groups.FiniteGroup.inverse",
    "groups.FiniteGroup.element_order", "groups.FiniteGroup.conjugate",
    "groups.FiniteGroup.commutator", "groups.AbelianGroup.add",
    "groups.AbelianGroup.neg", "groups.AbelianGroup.tuple_of",
    "groups.AbelianGroup.index_of", "groups.GroupAction.act",
    "groups.PairingChar.exponent", "groups.PairingChar.value",
    "algebra.TensorElement.get", "constructions.ProjectiveRep.cocycle_value",
    "movshev.MovshevAlgebra.act_index", "movshev.CharacterTable.value",
    "movshev.CharacterTable.conj_value",
})

# Dunder methods that do a layer's real work and so get a span.
WORK_DUNDERS = frozenset({
    "algebra.TensorElement.__mul__", "catalog.AbelianTwistTable.__init__",
})


def package_modules():
    """The twistlab modules by layer name, imported."""
    return {layer: importlib.import_module(f"twistlab.{layer}")
            for layer in LAYERS}


def _package_classes(modules):
    seen = {}
    for mod in modules.values():
        for val in vars(mod).values():
            if inspect.isclass(val) and val.__module__.startswith("twistlab."):
                seen[id(val)] = val
    return list(seen.values())


def _unwrap(raw):
    """(function, rewrap) for a class attribute, or (None, None)."""
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if inspect.isfunction(raw):
        return raw, None
    return None, None


class Patch:
    """Swap every binding of chosen functions; `restore` undoes it."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []

    def bindings(self, originals):
        """Every (owner, attr, raw, rewrap, fn) whose function is in
        originals, a dict from id(function) to function."""
        out = []
        for mod in self.modules.values():
            for attr, val in vars(mod).items():
                if id(val) in originals and val is originals[id(val)]:
                    out.append((mod, attr, val, None, val))
        for cls in _package_classes(self.modules):
            for attr, raw in vars(cls).items():
                fn, rewrap = _unwrap(raw)
                if fn is not None and originals.get(id(fn)) is fn:
                    out.append((cls, attr, raw, rewrap, fn))
        return out

    def apply(self, replacements):
        """replacements maps id(original) to (original, wrapper)."""
        if self.saved:
            raise RuntimeError("patch already applied")
        originals = {k: fn for k, (fn, _) in replacements.items()}
        for owner, attr, raw, rewrap, fn in self.bindings(originals):
            wrapper = replacements[id(fn)][1]
            setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
            self.saved.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved = []


def traced_functions(modules):
    """(qualified name, function) for every spanned public function.

    A function counts for the layer that defines it: module functions and
    methods of classes whose __module__ is that layer's module.  The
    scalars layer is left out (see ScalarCounter), as are HOT accessors.
    """
    out = {}
    for layer, mod in modules.items():
        if layer == "scalars":
            continue
        for name, val in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(val) and val.__module__ == mod.__name__:
                out[id(val)] = (f"{layer}.{name}", val)
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, raw in vars(val).items():
                    fn, _ = _unwrap(raw)
                    if fn is None or id(fn) in out:
                        continue
                    qual = f"{layer}.{val.__name__}.{attr}"
                    public = not attr.startswith("_")
                    if (public or qual in WORK_DUNDERS) and qual not in HOT:
                        out[id(fn)] = (qual, fn)
    return list(out.values())


# ---------------------------------------------------------------------------
# sizes recorded on spans


def _tensor_sizes(t):
    sizes = {"order": t.group.order, "terms": len(t.coeffs)}
    if t.coeffs:
        v = next(iter(t.coeffs.values()))
        sizes["conductor"] = getattr(v, "n", 0)
    return sizes


class _Sizer:
    """Post-call size probes.  Time spent here is excluded from spans."""

    def __init__(self, modules):
        self.TensorElement = modules["algebra"].TensorElement
        self.support_subgroup = modules["algebra"].support_subgroup

    def __call__(self, name, args, kwargs, result):
        T = self.TensorElement
        if name == "algebra.TensorElement.__mul__":
            a, b = args[0], args[1]
            return {"order": a.group.order, "terms": len(a.coeffs),
                    "terms_b": len(b.coeffs),
                    "pairs": len(a.coeffs) * len(b.coeffs)}
        if name == "algebra.algebra_invert":
            sizes = _tensor_sizes(args[0])
            sizes.update(invert_route(args[0], self.support_subgroup))
            return sizes
        if name == "algebra.mat_rref":
            rows, ncols = args[0], args[1]
            return {"cells": len(rows) * ncols}
        if name == "catalog.transport_isomorphism":
            return {"hit": result is not None}
        if name.startswith("formats.parse_") and args and \
                isinstance(args[0], str):
            return {"bytes_in": len(args[0])}
        if name.startswith("formats.format_") and isinstance(result, str):
            return {"bytes_out": len(result)}
        for a in args[:2]:
            if isinstance(a, T):
                return _tensor_sizes(a)
        first = args[0] if args else None
        group = getattr(first, "group", first)
        order = getattr(group, "order", None)
        if isinstance(order, int):
            return {"order": order}
        dim = getattr(first, "dim", None)
        if isinstance(dim, int):
            return {"dim": dim}
        return None


def invert_route(t, support_subgroup):
    """The inversion route algebra_invert selects for t, read from outside.

    The route follows the support subgroup S: abelian S goes to the
    character transform (fourier), nonabelian S with a proper nontrivial
    center to the central split (central), and centerless S to Krylov
    iteration (krylov).
    """
    if not t.coeffs:
        return {"route": "zero", "members": 0}
    members = support_subgroup(t)
    table = t.group.table
    gens = list(t.coeffs)

    def mul(x, y):
        return tuple(table[a][b] for a, b in zip(x, y))

    center = sum(1 for s in members
                 if all(mul(s, g) == mul(g, s) for g in gens))
    if center == len(members):
        route = "fourier"
    elif center > 1:
        route = "central"
    else:
        route = "krylov"
    return {"route": route, "members": len(members)}


class Tracer:
    """Spans around every public twistlab function, kept in memory.

    A record is [name, parent, start, end, paused, sizes]; paused is the
    time spent in size probes while the span was open, which self_times
    subtracts.  Item spans opened by the benchmark are the roots.
    """

    def __init__(self, modules):
        self.modules = modules
        self.records = []
        self.stack = []
        self.paused = 0.0
        self.patch = Patch(modules)
        self.sizer = _Sizer(modules)

    def _wrap(self, name, fn):
        records, stack, sizer = self.records, self.stack, self.sizer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.paused,
                   None]
            stack.append(len(records))
            records.append(rec)
            result = None
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[3] = clock()
                stack.pop()
                rec[4] = self.paused - rec[4]
                rec[5] = sizer(name, args, kwargs, result)
                # the probe ran inside every open ancestor, not inside rec
                self.paused += clock() - rec[3]
        return traced

    def install(self):
        self.patch.apply({id(fn): (fn, self._wrap(name, fn))
                          for name, fn in traced_functions(self.modules)})

    def restore(self):
        self.patch.restore()

    @contextlib.contextmanager
    def item(self, label):
        """A root span for one benchmark item."""
        rec = [f"item.{label}", self.stack[-1] if self.stack else -1, 0.0,
               0.0, self.paused, None]
        self.stack.append(len(self.records))
        self.records.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
            rec[4] = self.paused - rec[4]

    def self_times(self):
        """Per record: (name, self seconds, sizes, parent index)."""
        recs = self.records
        dur = [r[3] - r[2] - r[4] for r in recs]
        child = [0.0] * len(recs)
        for i, r in enumerate(recs):
            if r[1] >= 0:
                child[r[1]] += dur[i]
        return [(r[0], dur[i] - child[i], r[5], r[1])
                for i, r in enumerate(recs)]

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(self.records):
                fh.write(json.dumps({
                    "id": i, "parent": r[1], "name": r[0],
                    "start": r[2], "end": r[3], "paused": r[4],
                    "sizes": r[5]}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans

ELIM = ("algebra.mat_rref", "algebra.mat_rank", "algebra.mat_solve",
        "algebra.mat_nullspace", "algebra.mat_inverse")

# metric name (without the _s suffix) -> spanned functions whose self time
# it sums
SELF_TIME_GROUPS = {
    "algebra.tensor_mul": ("algebra.TensorElement.__mul__",),
    "algebra.elim": ELIM,
    "algebra.center_dimension":
        ("algebra.StructureConstantAlgebra.center_dimension",),
    "algebra.dualize": ("algebra.dualize_coalgebra",),
    "twists.check_twist": ("twists.check_twist",),
    "twists.check_triangular": ("twists.check_triangular",),
    "twists.coproduct_basis": ("twists.Twist.coproduct_basis",),
    "twists.drinfeld": ("twists.drinfeld_element",),
    "twists.leg_span_rank": ("twists.leg_span_rank",),
    "twists.gauge": ("twists.gauge_transform",),
    "movshev.dual": ("movshev.dual_movshev",),
    "movshev.certify_simple": ("movshev.certify_simple",),
    "movshev.regular_character": ("movshev.regular_character_report",),
    "movshev.trivialize": ("movshev.trivialize_symmetric_twist",),
    "constructions.twist_from_rep": ("constructions.twist_from_rep",),
    "constructions.twist_from_1cocycle":
        ("constructions.twist_from_1cocycle",),
    "constructions.eq2345": ("constructions.verify_eq2345",),
    "constructions.nondegenerate": ("constructions.is_nondegenerate",),
    "constructions.find_1cocycles":
        ("constructions.find_bijective_1cocycles",),
    "catalog.realize": ("catalog.realize_quadruple",),
    "catalog.embed": ("catalog.embed_twist",),
    "catalog.transport": ("catalog.transport_isomorphism",),
    "catalog.battery": ("catalog.AbelianTwistTable.battery",),
    "catalog.table": ("catalog.AbelianTwistTable.__init__",),
    "groups.iso_search": ("groups.isomorphisms", "groups.find_isomorphism",
                          "groups.is_isomorphic"),
    "groups.subgroup": ("groups.FiniteGroup.subgroup",
                        "groups.FiniteGroup.subgroup_generated",
                        "groups.FiniteGroup.commutator_subgroup",
                        "catalog.all_subgroups"),
}

ROUTES = ("fourier", "central", "krylov")

# The rows of ROADMAP's re-anchor table: metric -> (value ROADMAP states,
# spanned functions).  A roadmap.* row is the inclusive time per call of its
# functions at |H| = 64; a scalars.* row comes from ScalarCounter.per_op_ns.
ROADMAP_ROWS = {
    "roadmap.table_battery_64_s": ("5.7 s", (
        "catalog.AbelianTwistTable.__init__",
        "catalog.AbelianTwistTable.battery")),
    "roadmap.center_dimension_64_s": ("5.1 s", (
        "algebra.StructureConstantAlgebra.center_dimension",)),
    "roadmap.leg_span_rank_64_s": ("1.0 s", ("twists.leg_span_rank",)),
    "scalars.cyc_mul_ns": ("2200-2800 ns (rational or conductor 8)", ()),
    "scalars.cyc_inverse_ns": ("162000 ns (conductor 8)", ()),
}


def layer_metrics(tracer):
    """Named per-layer numbers from the recorded spans, as name -> (value,
    unit).  Seconds are self time unless the name says otherwise."""
    rows = tracer.self_times()
    self_by_name = defaultdict(float)
    calls = Counter()
    for name, own, _, _ in rows:
        self_by_name[name] += own
        calls[name] += 1
    m = {}
    for metric, names in SELF_TIME_GROUPS.items():
        m[f"{metric}_s"] = (sum(self_by_name[n] for n in names), "s")
    m["algebra.tensor_mul_calls"] = (calls["algebra.TensorElement.__mul__"],
                                     "count")
    transports = calls["catalog.transport_isomorphism"]
    m["catalog.transport_calls"] = (transports, "count")
    for kind in ("parse", "format"):
        m[f"formats.{kind}_s"] = (
            sum(v for k, v in self_by_name.items()
                if k.startswith(f"formats.{kind}_")), "s")
    m["cli.dispatch_s"] = (sum(v for k, v in self_by_name.items()
                               if k.startswith("cli.")), "s")

    pairs = cells = members = hits = bytes_in = bytes_out = 0
    route_s = defaultdict(float)
    route_calls = Counter()
    recs = tracer.records
    for name, own, sizes, parent in rows:
        if sizes is None:
            continue
        if name == "algebra.TensorElement.__mul__":
            pairs += sizes["pairs"]
        elif name == "algebra.mat_rref":
            cells += sizes["cells"]
        elif name == "algebra.algebra_invert":
            route = sizes["route"]
            route_s[route] += own
            route_calls[route] += 1
            members += sizes["members"]
        elif name == "catalog.transport_isomorphism":
            hits += sizes["hit"]
        # only the outermost parse or format call counts its bytes
        outer = parent < 0 or not recs[parent][0].startswith("formats.")
        if outer and "bytes_in" in sizes:
            bytes_in += sizes["bytes_in"]
        if outer and "bytes_out" in sizes:
            bytes_out += sizes["bytes_out"]
    m["algebra.tensor_mul_pairs"] = (pairs, "count")
    m["algebra.elim_cells"] = (cells, "count")
    m["algebra.invert_members"] = (members, "count")
    for route in ROUTES:
        m[f"algebra.invert.{route}_s"] = (route_s[route], "s")
        m[f"algebra.invert.{route}_calls"] = (route_calls[route], "count")
    m["catalog.transport_hit_ratio"] = (
        hits / transports if transports else 0.0, "ratio")
    m["formats.bytes_in"] = (bytes_in, "B")
    m["formats.bytes_out"] = (bytes_out, "B")

    # ROADMAP rows: inclusive time per call at |H| = 64
    incl = defaultdict(float)
    n64 = Counter()
    for r in recs:
        sizes = r[5] or {}
        if (sizes.get("order") or sizes.get("dim")) == 64:
            incl[r[0]] += r[3] - r[2] - r[4]
            n64[r[0]] += 1
    for metric, (_, names) in ROADMAP_ROWS.items():
        if names:
            calls64 = n64[names[0]]
            m[metric] = (sum(incl[n] for n in names) / calls64
                         if calls64 else 0.0, "s")
    return m


# ---------------------------------------------------------------------------
# scalar call counts and per-op timings


class ScalarCounter:
    """Counts Cyc arithmetic, keyed by operation and conductor, and keeps a
    thinned sample of operands per key.

    Samples are thinned by halving whenever KEEP is reached, so they spread
    over the whole pass rather than its first calls.
    """

    KEEP = 256
    MIN_TIME = 0.01     # seconds per timing round of one key
    REPEATS = 3         # rounds per key; the fastest is kept
    OPS = (("__mul__", "cyc_mul"), ("__add__", "cyc_add"),
           ("inverse", "cyc_inverse"), ("promote", "cyc_promote"))

    def __init__(self, modules):
        self.modules = modules
        self.patch = Patch(modules)
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.stride = defaultdict(lambda: 1)
        self.originals = {}

    def _wrap(self, op, fn, key_of):
        counts, samples, stride = self.counts, self.samples, self.stride
        keep = self.KEEP

        @functools.wraps(fn)
        def counted(*args):
            result = fn(*args)
            key = (op, key_of(args, result))
            n = counts[key] + 1
            counts[key] = n
            if n % stride[key] == 0:
                bucket = samples[key]
                bucket.append(args)
                if len(bucket) >= keep:
                    del bucket[::2]
                    stride[key] *= 2
            return result
        return counted

    def install(self):
        scal = self.modules["scalars"]
        Cyc = scal.Cyc

        def cyc_key(args, result):
            return result.n if type(result) is Cyc else args[0].n

        def promote_key(args, result):
            return args[1]

        repl = {}
        for attr, op in self.OPS:
            fn = vars(Cyc)[attr]
            self.originals[op] = fn
            key_of = promote_key if op == "cyc_promote" else cyc_key
            repl[id(fn)] = (fn, self._wrap(op, fn, key_of))
        self.patch.apply(repl)

    def restore(self):
        self.patch.restore()

    def calls(self, op):
        return sum(n for (o, _), n in self.counts.items() if o == op)

    def per_op_ns(self, op):
        """Call-weighted mean ns per call of op over the sampled operands,
        and the per-key table [(key, calls, ns)].  Each key's operands are
        replayed through the original function; the best of REPEATS rounds
        of at least MIN_TIME seconds is kept."""
        fn = self.originals[op]
        table = []
        for (o, key), calls in sorted(self.counts.items()):
            if o != op or not self.samples[(o, key)]:
                continue
            ops = self.samples[(o, key)]
            best = None
            for _ in range(self.REPEATS):
                n = 0
                t0 = time.perf_counter()
                while True:
                    for args in ops:
                        fn(*args)
                    n += len(ops)
                    dt = time.perf_counter() - t0
                    if dt >= self.MIN_TIME:
                        break
                per = dt / n * 1e9
                best = per if best is None else min(best, per)
            table.append((key, calls, best))
        total = sum(c for _, c, _ in table)
        mean = sum(c * ns for _, c, ns in table) / total if total else 0.0
        return mean, table
