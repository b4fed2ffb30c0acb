"""The seeded workloads of the benchmark.

Each workload builds its inputs from the seed in __init__ (the set-up that
setup_s times), then runs whole passes through twistlab's public API.  A
pass returns its wall time, one latency per item and the failures found by
the correctness gate; the gate runs after each timed call and is not part of
the pass time.

* catalog      enumerate_quadruples over Q(zeta) for orders 8, 9 and 12 (34
               certified quadruples).  Nonabelian ambient groups, transport
               dedup, embed_twist re-verification and the generic |G|^4
               triangularity engine.  An item is one realized quadruple.
               Order 16 (55 quadruples, about 50 s) is left out: one pass
               of it would outlast a whole run.
* finder64     abelian certification at |H| = 64: the finder counts for
               C2xC4 and C2xC2xC2, one seeded C2xC4 twist through the
               character battery, leg rank, Drinfeld element, dual algebra
               and grouplike count, and one seeded C2xC2xC2 twist built.
               An item is one certificate call on one twist.
* session      the README CLI session, the same commands on a nonabelian
               action, verify-twist / r-matrix / drinfeld on gauge twists
               over S3 and D4, and trivialize on a symmetric twist, all
               through twistlab.cli.main in-process.  An item is one command.

There is no prime-field copy of catalog.  One was tried: on a shared
two-vCPU host its median pass time over ten seeds had a quartile spread of
23-33% of the median, against a regression bound of 25%.
"""

import contextlib
import io
import json
import random
import shutil
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

clock = time.perf_counter


class PassResult:
    """Pass wall time (program calls only), items and gate failures."""

    def __init__(self):
        self.run_s = 0.0
        self.items = []          # (label, seconds, ok)
        self.failures = []       # "label: reason"

    def item(self, label, seconds, error):
        self.items.append((label, seconds, error is None))
        if error is not None:
            self.failures.append(f"{label}: {error}")


def _span(tracer, label):
    return tracer.item(label) if tracer is not None else \
        contextlib.nullcontext()


def _call(res, tracer, label, fn, check):
    """Time fn() as one item, then gate its result with check (untimed).

    check returns None when the result is correct, else a reason.  Any
    exception from the program is a failed item, never a crash of the
    benchmark.
    """
    with _span(tracer, label):
        t0 = clock()
        try:
            value, error = fn(), None
        except Exception as exc:      # the program failed this item
            value, error = None, f"{type(exc).__name__}: {exc}"
        dt = clock() - t0
    res.run_s += dt
    if error is None:
        error = check(value)
    res.item(label, dt, error)
    return value if error is None else None


def same_tensor(a, b):
    """Equal tensors, also across separately parsed group objects."""
    return (a.rank == b.rank and a.group.order == b.group.order
            and a.group.table == b.group.table and a.coeffs == b.coeffs)


class Workload:
    """Set-up in __init__, then run_pass once per PASS_S of the run."""

    name = ""
    # Nominal seconds per pass on a 2-vCPU Xeon host, from which a run of
    # --seconds makes its pass count.  Items differ in size by up to 300x,
    # so the tail percentile jumps between items when the count of pooled
    # passes changes; a count that followed the host's speed would make
    # item_tail_s jump with it.
    PASS_S = None

    def run_pass(self, tracer=None):
        raise NotImplementedError

    def close(self):
        """Remove what set-up wrote."""


# ---------------------------------------------------------------------------
# catalog


class Catalog(Workload):
    """enumerate_quadruples over Q(zeta) for the orders in ORDERS.

    The expected table in expected.json holds, per order, one row per
    certified quadruple: group, |H|, dim V, u, class size, minimal flag,
    grouplike count and leg rank, frozen from enumerate_quadruples when the
    benchmark was defined.
    """

    name = "catalog"
    # One item, order9#2, is about 40% of a pass and sets item_tail_s; at
    # 16 passes the tail is its 6th-fastest of 16 latencies, near its
    # median rather than its 3rd-fastest of 13.
    PASS_S = 2.5
    ORDERS = (8, 9, 12)
    # The seed of twist_from_rep's functional search moves the scalar work
    # of a pass by up to 13% (276k to 363k Cyc products over seeds 0-5), so
    # it is held at the CLI default and the benchmark seed only orders the
    # orders within a pass.
    SEARCH_SEED = 0

    def __init__(self, seed, workdir):
        from twistlab import catalog
        from twistlab.scalars import CyclotomicField
        self.catalog = catalog
        self.field = CyclotomicField()
        self.orders = list(self.ORDERS)
        random.Random(seed).shuffle(self.orders)
        with open(EXPECTED, encoding="utf-8") as fh:
            table = json.load(fh)["catalog"]
        self.expected = {N: table[str(N)] for N in self.orders}
        # group inventory: builtin_groups caches it for the passes
        for N in self.orders:
            catalog.builtin_groups(N)

    def run_pass(self, tracer=None):
        cat = self.catalog
        res = PassResult()
        original = cat.realize_quadruple
        latencies = []

        def timed_realize(q, seed=0):
            t0 = clock()
            try:
                return original(q, seed=seed)
            finally:
                latencies.append(clock() - t0)

        cat.realize_quadruple = timed_realize
        try:
            for N in self.orders:
                del latencies[:]
                with _span(tracer, f"classify-{N}"):
                    t0 = clock()
                    try:
                        data, error = cat.enumerate_quadruples(
                            N, field=self.field,
                            seed=self.SEARCH_SEED), None
                    except Exception as exc:   # the program failed
                        data, error = [], f"{type(exc).__name__}: {exc}"
                    res.run_s += clock() - t0
                self._gate(res, N, data, list(latencies), error)
        finally:
            cat.realize_quadruple = original
        return res

    def _gate(self, res, N, data, latencies, error):
        rows = self.expected[N]
        if len(data) != len(rows):
            error = error or f"{len(data)} entries, expected {len(rows)}"
        for i, want in enumerate(rows):
            label = f"order{N}#{i}"
            dt = latencies[i] if i < len(latencies) else 0.0
            if error is not None or i >= len(data):
                res.item(label, dt, error or "missing entry")
                continue
            res.item(label, dt, _datum_error(data[i], want))


def _datum_error(datum, want):
    q = datum.quadruple
    c = datum.certificates
    got = [q.G.name, len(q.members), q.V.dim, q.G.labels[q.u],
           datum.class_size, c["minimal"], c["grouplikes"], c["leg rank"]]
    if not datum.ok:
        return "a certificate failed"
    if c["center dimension"] != 1 or c["solvable"] is not True:
        return "dual center or solvability differs"
    if got != want:
        return f"invariants {got} != {want}"
    return None


# ---------------------------------------------------------------------------
# finder64


class Finder64(Workload):
    """Abelian certificates on found twists at |H| = 64.

    The verify_eq2345 product formulas (about 10 s per twist at |H| = 64),
    the certificates of the C2xC2xC2 twist (about 20 s) and the generic
    check_triangular (about 770 s) are left out so that a pass stays near
    25 s; the session workload runs verify-eq2345 at |H| = 16.
    """

    name = "finder64"
    PASS_S = 25.0
    FOUND = {(2, 4): 8, (2, 2, 2): 168}

    def __init__(self, seed, workdir):
        from twistlab.groups import abelian_group, trivial_action
        from twistlab.scalars import CyclotomicField
        rng = random.Random(seed)
        self.field = CyclotomicField()
        self.triples = []
        for factors, count in self.FOUND.items():
            G, A = abelian_group(factors), abelian_group(factors)
            self.triples.append((factors, G, A, trivial_action(G, A),
                                 rng.randrange(count)))

    def run_pass(self, tracer=None):
        from twistlab.algebra import TensorElement, regular_trace
        from twistlab.catalog import AbelianTwistTable
        from twistlab.constructions import (find_bijective_1cocycles,
                                            twist_from_1cocycle)
        from twistlab.movshev import (certify_simple, count_grouplikes,
                                      dual_movshev)
        from twistlab.twists import (drinfeld_element, leg_span_rank,
                                     r_matrix, twisted_antipode)
        res = PassResult()
        Q = self.field
        found = {}
        for factors, G, A, action, pick in self.triples:
            name = "C" + "xC".join(map(str, factors))
            want = self.FOUND[factors]
            found[factors] = _call(
                res, tracer, f"find {name}",
                lambda: find_bijective_1cocycles(G, A, action),
                lambda f: None if len(f) == want
                else f"found {len(f)}, expected {want}")
        twists = {}
        for factors, G, A, action, pick in self.triples:
            cocycles = found[factors]
            name = "C" + "xC".join(map(str, factors))
            twists[factors] = _call(
                res, tracer, f"build {name}",
                lambda: twist_from_1cocycle(cocycles[pick], Q)
                if cocycles else None,
                lambda tw: None if tw is not None and tw.group.order == 64
                else "no twist on |H| = 64")
        tw = twists[(2, 4)]
        if tw is None:
            for label in ("table", "battery", "leg rank", "drinfeld",
                          "dual simple", "grouplikes"):
                res.item(label, 0.0, "no C2xC4 twist to certify")
            return res
        H, n = tw.group, tw.group.order
        table = _call(res, tracer, "table", lambda: AbelianTwistTable(tw.J),
                      lambda t: None)
        _call(res, tracer, "battery",
              lambda: table.battery() if table else None,
              lambda rep: None if rep is not None and rep.ok
              else "battery failed")
        r = r_matrix(tw)
        _call(res, tracer, "leg rank", lambda: leg_span_rank(H, r),
              lambda k: None if k == n else f"leg rank {k} != {n}")
        unit = TensorElement.unit(H, 1, Q)
        _call(res, tracer, "drinfeld",
              lambda: drinfeld_element(r, twisted_antipode(tw),
                                       tw.coproduct_basis),
              lambda u: None if u == unit and
              regular_trace(u) == Q.from_int(n) else "u differs from 1")
        _call(res, tracer, "dual simple",
              lambda: certify_simple(dual_movshev(tw)),
              lambda rep: None if rep.ok else "dual algebra not simple")
        _call(res, tracer, "grouplikes", lambda: count_grouplikes(tw),
              lambda k: None if k == n else f"{k} grouplikes != {n}")
        return res


# ---------------------------------------------------------------------------
# session


class Session(Workload):
    """CLI commands in-process on documents written at set-up.

    Gauge elements are x = 4 e + s + 2 t for a seeded generating pair
    (s, t) with fixed element orders.  Every such pair of one group is an
    automorphic image of every other, so each seed reaches the same
    inversion routes and tensor sizes.  Artifacts are gated by parsing them
    and comparing with the library value, computed once per run.  A4 is
    not among the gauge groups: Krylov inversion on A4 alone takes about
    8.5 s, and S3 already reaches that route.
    """

    name = "session"
    PASS_S = 18.0
    GAUGE = {"S3": (3, 2), "D4": (4, 2)}
    SYMMETRIC = ((3, 3), (3, 3))

    def __init__(self, seed, workdir):
        from twistlab import formats
        from twistlab.algebra import TensorElement, algebra_invert, \
            hopf_coproduct, hopf_counit
        from twistlab.catalog import SCAN_TRIPLES
        from twistlab.constructions import find_bijective_1cocycles
        from twistlab.groups import (abelian_group,
                                     action_from_generator_images, dihedral,
                                     symmetric, trivial_action)
        from twistlab.scalars import CyclotomicField
        self.formats = formats
        self.Q = Q = CyclotomicField()
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)

        def gauge_twist(G, orders):
            pairs = [(s, t) for s in range(G.order) for t in range(G.order)
                     if G.element_order(s) == orders[0]
                     and G.element_order(t) == orders[1]
                     and len(G.subgroup_generated([s, t])) == G.order]
            s, t = rng.choice(pairs)
            e = G.identity
            x = TensorElement(G, 1, Q, {(e,): Q.from_int(4),
                                        (s,): Q.from_int(1),
                                        (t,): Q.from_int(2)})
            x = x.scale(hopf_counit(x).inverse())
            x_inv = algebra_invert(x)
            return hopf_coproduct(x) * x_inv.outer(x_inv)

        def write(name, text):
            path = self.dir / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        # README group on C2xC2 -> C2xC2, and the nonabelian action
        G, A = abelian_group((2, 2)), abelian_group((2, 2))
        label, gf, af, images = next(t for t in SCAN_TRIPLES if t[0] ==
                                     "C2xC2 on C4, inversion by the first "
                                     "factor")
        Gn, An = abelian_group(gf), abelian_group(af)
        act_n = action_from_generator_images(Gn, An, Gn.basis(),
                                             [list(p) for p in images])
        self.groups = []
        for tag, Gx, Ax, action, action_arg in (
                ("readme", G, A, trivial_action(G, A), "trivial"),
                ("nonabelian", Gn, An, act_n,
                 write("action.txt", formats.format_action(act_n)))):
            found = find_bijective_1cocycles(Gx, Ax, action)
            self.groups.append({
                "tag": tag, "G": ",".join(map(str, Gx.factors)),
                "A": ",".join(map(str, Ax.factors)), "action": action_arg,
                "found": found, "index": rng.randrange(len(found))})
        self.gauge = []
        for tag, Gx in (("S3", symmetric(3)), ("D4", dihedral(4))):
            J = gauge_twist(Gx, self.GAUGE[tag])
            self.gauge.append((tag, J, write(f"gauge-{tag}.txt",
                                             formats.format_tensor(J))))
        Gs = abelian_group(self.SYMMETRIC[0])
        self.sym_J = gauge_twist(Gs, self.SYMMETRIC[1])
        self.sym_path = write("symmetric.txt",
                              formats.format_tensor(self.sym_J))
        self._library = {}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- library values, computed once per run --------------------------------

    def library(self, key, make):
        if key not in self._library:
            self._library[key] = make()
        return self._library[key]

    def _twist_values(self, key, J):
        from twistlab.movshev import dual_movshev
        from twistlab.twists import (drinfeld_element, r_matrix,
                                     twisted_antipode, verify_twist)

        def make():
            tw = verify_twist(J)
            r = r_matrix(tw)
            u = drinfeld_element(r, twisted_antipode(tw), tw.coproduct_basis)
            return {"r": r, "u": u, "dual": dual_movshev(tw).algebra}
        return self.library(key, make)

    # -- the pass -------------------------------------------------------------

    def run_pass(self, tracer=None):
        from twistlab import cli
        from twistlab.constructions import cocycle_twist_tensor
        fm = self.formats
        res = PassResult()
        d = self.dir

        def run(label, argv, gate):
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    return cli.main(argv)

            def check(rc):
                if rc != 0:
                    return f"exit {rc}: {err.getvalue().strip()[:200]}"
                return gate(out.getvalue())
            _call(res, tracer, label, call, check)

        def report_ok(text):
            _, checks, status = fm.parse_report(text)
            if not checks or not all(ok for _, ok, _ in checks) or \
                    status is not True:
                return "report does not pass"
            return None

        def file_report(path):
            return lambda _: report_ok(Path(path).read_text("utf-8"))

        def tensor_is(path, want, also=None):
            def gate(stdout):
                got = fm.parse_tensor(Path(path).read_text("utf-8"))
                if not same_tensor(got, want()):
                    return f"{Path(path).name} differs from the library value"
                return also(stdout) if also else None
            return gate

        for grp in self.groups:
            tag = grp["tag"]
            cocycles, twist = d / f"{tag}-cocycles.txt", d / f"{tag}-twist.txt"
            data = grp["found"][grp["index"]]
            action = ["--action", grp["action"]] \
                if grp["action"] != "trivial" else []

            def cocycles_gate(stdout, path=cocycles, found=grp["found"]):
                text = path.read_text("utf-8")
                got = [c.pi for c in fm.parse_cocycles(text)]
                return None if got == [c.pi for c in found] \
                    else "cocycles differ from the finder"

            J = cocycle_twist_tensor(data, self.Q)
            values = (lambda tg=tag, JJ=J:
                      self._twist_values(("cocycle", tg), JJ))
            run(f"{tag}:find-1cocycles",
                ["find-1cocycles", "--G", grp["G"], "--A", grp["A"], *action,
                 "--out", str(cocycles)], cocycles_gate)
            run(f"{tag}:build-twist",
                ["build-twist", "--from-1cocycle", str(cocycles), "--index",
                 str(grp["index"]), "--out", str(twist)],
                tensor_is(twist, lambda JJ=J: JJ, report_ok))
            self._twist_commands(run, tag, twist, values, file_report,
                                 tensor_is, report_ok)
            run(f"{tag}:minimal",
                ["minimal", "--twist", str(twist), "--out",
                 str(d / f"{tag}-minimal.txt")],
                file_report(d / f"{tag}-minimal.txt"))

            def dual_gate(stdout, path=d / f"{tag}-dual.txt", vals=values):
                got, want = fm.parse_algebra(path.read_text("utf-8")), \
                    vals()["dual"]
                if got.m != want.m or got.unit != want.unit:
                    return "dual algebra differs from the library value"
                return report_ok(stdout)
            run(f"{tag}:movshev",
                ["movshev", "--twist", str(twist), "--out",
                 str(d / f"{tag}-dual.txt")], dual_gate)
            run(f"{tag}:verify-eq2345",
                ["verify-eq2345", str(cocycles), "--out",
                 str(d / f"{tag}-eq.txt")], file_report(d / f"{tag}-eq.txt"))

        for tag, J, path in self.gauge:
            values = (lambda tg=tag, JJ=J: self._twist_values(("gauge", tg),
                                                              JJ))
            self._twist_commands(run, tag, Path(path), values, file_report,
                                 tensor_is, report_ok)

        def trivialize_value():
            from twistlab.movshev import trivialize_symmetric_twist
            from twistlab.twists import verify_twist
            return self.library("trivialize", lambda:
                                trivialize_symmetric_twist(
                                    verify_twist(self.sym_J)))
        gauge_out = d / "gauge.txt"
        run("trivialize", ["trivialize", "--twist", self.sym_path, "--out",
                           str(gauge_out)],
            tensor_is(gauge_out, trivialize_value, report_ok))
        return res

    def _twist_commands(self, run, tag, twist, values, file_report,
                        tensor_is, report_ok):
        d = self.dir
        verify, r, u = (d / f"{tag}-{x}.txt" for x in ("verify", "r", "u"))
        run(f"{tag}:verify-twist",
            ["verify-twist", "--twist", str(twist), "--out", str(verify)],
            file_report(verify))
        run(f"{tag}:r-matrix",
            ["r-matrix", "--twist", str(twist), "--out", str(r)],
            tensor_is(r, lambda: values()["r"], report_ok))
        run(f"{tag}:drinfeld",
            ["drinfeld", "--twist", str(twist), "--out", str(u)],
            tensor_is(u, lambda: values()["u"], report_ok))


WORKLOADS = {w.name: w for w in (Catalog, Finder64, Session)}
