"""Tests of the benchmark's tracer and counter.

Run from the repository root:  python3 -m pytest -q perfbench/test_tracer.py
"""

import contextlib
import inspect
import io
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402


def all_bindings(modules):
    """(owner, attr) -> bound object, for every module and class attribute
    of the package."""
    out = {}
    for mod in modules.values():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
    for cls in tr._package_classes(modules):
        for attr, raw in vars(cls).items():
            out[(f"{cls.__module__}.{cls.__qualname__}", attr)] = raw
    return out


def functions_of(bindings):
    out = {}
    for key, raw in bindings.items():
        fn, _ = tr._unwrap(raw)
        if fn is not None:
            out.setdefault(id(fn), []).append(key)
    return out


def test_every_binding_is_wrapped():
    modules = tr.package_modules()
    before = functions_of(all_bindings(modules))
    traced = tr.traced_functions(modules)
    # the names imported into other modules are among the targets
    names = {name for name, _ in traced}
    for name in ("algebra.algebra_invert", "twists.check_twist",
                 "catalog.realize_quadruple", "formats.parse_tensor",
                 "algebra.TensorElement.__mul__"):
        assert name in names
    t = tr.Tracer(modules)
    t.install()
    try:
        after = all_bindings(modules)
        for _, fn in traced:
            keys = before[id(fn)]
            assert len(keys) >= 1
            for key in keys:
                now, _ = tr._unwrap(after[key])
                assert now is not fn, f"{key} still bound to the original"
                assert now.__wrapped__ is fn
        # a binding imported elsewhere: twists imports algebra_invert
        assert modules["twists"].algebra_invert is \
            modules["algebra"].algebra_invert
        assert modules["cli"].check_twist is modules["twists"].check_twist
    finally:
        t.restore()


def test_every_binding_is_restored():
    modules = tr.package_modules()
    before = all_bindings(modules)
    t = tr.Tracer(modules)
    t.install()
    t.restore()
    c = tr.ScalarCounter(modules)
    c.install()
    Cyc = vars(modules["scalars"].Cyc)
    # __rmul__ is an alias of __mul__ and is counted with it
    assert Cyc["__mul__"].__wrapped__ is \
        before[("twistlab.scalars.Cyc", "__mul__")]
    assert Cyc["__rmul__"] is Cyc["__mul__"]
    c.restore()
    after = all_bindings(modules)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _cli_artifacts(modules, tmp_path, tag):
    cli = modules["cli"]
    out_dir = tmp_path / tag
    out_dir.mkdir()
    cocycles, twist = out_dir / "c.txt", out_dir / "t.txt"
    runs = [
        ["find-1cocycles", "--G", "2", "--A", "2", "--out", str(cocycles)],
        ["build-twist", "--from-1cocycle", str(cocycles), "--out", str(twist)],
        ["r-matrix", "--twist", str(twist), "--out", str(out_dir / "r.txt")],
        ["movshev", "--twist", str(twist), "--out", str(out_dir / "d.txt")],
        ["verify-twist", "--twist", str(twist)],
    ]
    texts = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        texts.append(out.getvalue())
    for name in ("c.txt", "t.txt", "r.txt", "d.txt"):
        texts.append((out_dir / name).read_text())
    return texts


def _certificates(modules):
    data = modules["catalog"].enumerate_quadruples(8)
    return [(d.quadruple.G.name, d.quadruple.members, d.quadruple.u,
             d.class_size, d.certificates, d.r.coeffs) for d in data]


def test_traced_pass_gives_the_same_results(tmp_path):
    modules = tr.package_modules()
    plain = (_certificates(modules), _cli_artifacts(modules, tmp_path, "a"))
    t = tr.Tracer(modules)
    t.install()
    try:
        traced = (_certificates(modules),
                  _cli_artifacts(modules, tmp_path, "b"))
    finally:
        t.restore()
    assert traced == plain
    recs = t.records
    names = {r[0] for r in recs}
    assert "catalog.realize_quadruple" in names
    assert "cli.main" in names
    assert "formats.parse_tensor" in names
    # scalar helpers such as parse_scalar count in their caller's self time
    assert not any(n.startswith("scalars.") for n in names)
    parse_children = [r[0] for r in recs if r[1] >= 0
                      and recs[r[1]][0].startswith("formats.parse_")]
    assert not any(n.startswith("scalars.") for n in parse_children)
    # size probes are excluded from spans, so no self time is negative
    rows = t.self_times()
    assert min(own for _, own, _, _ in rows) > -1e-6
    metrics = tr.layer_metrics(t)
    assert metrics["algebra.tensor_mul_calls"] == (
        sum(1 for r in recs if r[0] == "algebra.TensorElement.__mul__"),
        "count")
    assert metrics["formats.parse_s"][0] > 0
    assert metrics["formats.bytes_in"][0] > 0
    assert metrics["formats.bytes_out"][0] > 0
    c = tr.ScalarCounter(modules)
    c.install()
    try:
        counted = _certificates(modules)
    finally:
        c.restore()
    assert counted == plain[0]
    assert c.calls("cyc_mul") > 0
    mean, table = c.per_op_ns("cyc_mul")
    assert mean > 0 and table


def test_invert_route_labels():
    modules = tr.package_modules()
    alg = modules["algebra"]
    groups = modules["groups"]
    Q = modules["scalars"].CyclotomicField()

    def element(G, s, t):
        return alg.TensorElement(G, 1, Q, {(G.identity,): Q.from_int(4),
                                           (s,): Q.from_int(1),
                                           (t,): Q.from_int(2)})

    def pair(G, a, b):
        return next((s, t) for s in range(G.order) for t in range(G.order)
                    if G.element_order(s) == a and G.element_order(t) == b
                    and len(G.subgroup_generated([s, t])) == G.order)

    cases = ((groups.abelian_group((2, 2)), (2, 2), "fourier"),
             (groups.dihedral(4), (4, 2), "central"),
             (groups.symmetric(3), (3, 2), "krylov"))
    elements = []
    for G, orders, route in cases:
        x = element(G, *pair(G, *orders))
        got = tr.invert_route(x, alg.support_subgroup)
        assert got == {"route": route, "members": G.order}
        elements.append(x)

    # each route is attributed once, and the route probe (which computes
    # the support subgroup again) takes no time from any span
    t = tr.Tracer(modules)
    t.install()
    try:
        for x in elements:
            alg.algebra_invert(x)
    finally:
        t.restore()
    names = Counter(r[0] for r in t.records)
    assert names["algebra.algebra_invert"] == len(cases)
    assert names["algebra.support_subgroup"] == len(cases)
    assert min(own for _, own, _, _ in t.self_times()) > -1e-6
    metrics = tr.layer_metrics(t)
    for route in tr.ROUTES:
        assert metrics[f"algebra.invert.{route}_calls"] == (1, "count")


def test_hot_and_work_names_exist():
    modules = tr.package_modules()
    known = set()
    for layer, mod in modules.items():
        for name, val in vars(mod).items():
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr in vars(val):
                    known.add(f"{layer}.{val.__name__}.{attr}")
    assert tr.HOT <= known
    assert tr.WORK_DUNDERS <= known
