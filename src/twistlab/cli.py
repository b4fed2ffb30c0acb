"""Command line interface.

Commands read and write the versioned text documents of the formats
module.  The main artifact of a command goes to --out when given,
otherwise to stdout; the accompanying check report goes to stdout when the
artifact went to a file, otherwise to stderr.  Exit status: 0 when every
certificate passed, 1 when a certificate failed (the report or message
names the failed identity), 2 on malformed input.
"""

import argparse
import sys

from .scalars import ScalarError, make_field, parse_field_spec
from .groups import GroupError, abelian_group, trivial_action
from .algebra import AlgebraError, TensorElement
from .twists import (CheckReport, TwistError, check_triangular, check_twist,
                     drinfeld_element, leg_span_rank, r_matrix, r_u,
                     twisted_antipode, verify_twist)
from .movshev import (MovshevError, certify_simple, count_grouplikes,
                      dual_movshev, regular_character_report,
                      trivialize_symmetric_twist)
from .constructions import (ConstructionError, find_bijective_1cocycles,
                            twist_from_1cocycle, twist_from_rep,
                            verify_eq2345)
from .catalog import (MAX_INVENTORY_ORDER, CatalogError, builtin_groups,
                      enumerate_quadruples)
from . import formats
from .formats import FormatError

DOMAIN_ERRORS = (ScalarError, GroupError, AlgebraError, TwistError,
                 MovshevError, ConstructionError, CatalogError)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}")


def _emit(args, artifact, report_text=None):
    """Artifact to --out or stdout; the report rides along on the other."""
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(artifact)
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc.strerror or exc}")
        if report_text is not None:
            sys.stdout.write(report_text)
    else:
        sys.stdout.write(artifact)
        if report_text is not None:
            sys.stderr.write(report_text)


def _field_of(args):
    try:
        return make_field(parse_field_spec(args.field))
    except ScalarError as exc:
        raise FormatError(f"bad --field: {exc}")


def _abelian_flag(text, flag):
    """The abelian group of a --G or --A flag of comma-separated factors."""
    try:
        factors = tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise FormatError(f"{flag} expects comma-separated integers, "
                          f"found {text!r}")
    if not factors:
        raise FormatError(f"{flag} expects at least one cyclic factor")
    try:
        return abelian_group(factors)
    except GroupError as exc:
        raise FormatError(f"bad {flag} {text!r}: {exc}")


def _inventory_order(value, flag):
    if not 1 <= value <= MAX_INVENTORY_ORDER:
        raise FormatError(f"{flag} must be in 1..{MAX_INVENTORY_ORDER}, "
                          f"found {value}")
    return value


def _load_twist_tensor(args):
    group = formats.parse_group(_read(args.group)) if args.group else None
    J = formats.parse_tensor(_read(args.twist), group=group)
    if J.rank != 2:
        raise FormatError(f"a twist document must have rank 2, found "
                          f"rank {J.rank}")
    return J


def _resolve_element(group, text):
    """A group element named by its label, or by index as a fallback."""
    if text in group.labels:
        return group.labels.index(text)
    try:
        idx = int(text)
    except ValueError:
        idx = -1
    if 0 <= idx < group.order:
        return idx
    shown = ", ".join(group.labels[:8]) + (", ..." if group.order > 8 else "")
    raise FormatError(f"no element labelled {text!r} in {group.name} "
                      f"(labels: {shown})")


def _full_r_matrix(twist, args):
    r = r_matrix(twist)
    if getattr(args, "u", None):
        u = _resolve_element(twist.group, args.u)
        r = r * r_u(twist.group, twist.field, u)
    return r


def _yes(flag):
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# command handlers

def cmd_verify_twist(args):
    J = _load_twist_tensor(args)
    report = check_twist(J)
    doc = formats.format_report(report, preamble=[("command", "verify-twist")])
    _emit(args, doc)
    return 0 if report.ok else 1


def cmd_r_matrix(args):
    twist = verify_twist(_load_twist_tensor(args))
    r = _full_r_matrix(twist, args)
    report = check_triangular(twist.group, twist.coproduct_basis, r)
    doc = formats.format_tensor(r)
    rep_doc = formats.format_report(report, preamble=[("command", "r-matrix")])
    _emit(args, doc, rep_doc)
    return 0 if report.ok else 1


def cmd_drinfeld(args):
    twist = verify_twist(_load_twist_tensor(args))
    r = _full_r_matrix(twist, args)
    antipode = twisted_antipode(twist)
    u = drinfeld_element(r, antipode, twist.coproduct_basis)
    group, field = twist.group, twist.field
    report = CheckReport(f"drinfeld element over {group.name}")
    report.add("invertible, central, squares to 1, grouplike", True)
    tr = u.coeffs.get((group.identity,), field.zero()) * field.from_int(group.order)
    is_identity = u == TensorElement.unit(group, 1, field)
    report.add("regular trace matches",
               tr == (field.from_int(group.order) if is_identity
                      else field.zero()),
               f"trace {tr}")
    doc = formats.format_tensor(u)
    rep_doc = formats.format_report(report, preamble=[("command", "drinfeld")])
    _emit(args, doc, rep_doc)
    return 0 if report.ok else 1


def cmd_minimal(args):
    twist = verify_twist(_load_twist_tensor(args))
    r = _full_r_matrix(twist, args)
    n = twist.group.order
    rank = leg_span_rank(twist.group, r)
    report = CheckReport(f"minimality over {twist.group.name}")
    report.add("legs of the R-matrix span the group algebra", rank == n,
               f"leg span rank {rank} of {n}")
    doc = formats.format_report(report, preamble=[("command", "minimal")])
    _emit(args, doc)
    return 0 if report.ok else 1


def cmd_movshev(args):
    twist = verify_twist(_load_twist_tensor(args))
    M = dual_movshev(twist)
    group, field = twist.group, twist.field
    run_all = not (args.certify_simple or args.regular or args.grouplikes)
    report = CheckReport(f"movshev algebra over {group.name}")
    if run_all or args.certify_simple:
        for item in certify_simple(M).checks:
            report.checks.append(item)
    if run_all or args.regular:
        mats = [M.action_matrix(h) for h in range(group.order)]
        for name, ok, witness in regular_character_report(group, mats,
                                                          field).checks:
            report.checks.append((f"regular {name}", ok, witness))
    if run_all or args.grouplikes:
        count = count_grouplikes(twist)
        report.add("at least two grouplike elements",
                   count >= 2 or group.order < 2,
                   f"{count} grouplikes")
    doc = formats.format_algebra(M.algebra)
    rep_doc = formats.format_report(report, preamble=[("command", "movshev")])
    _emit(args, doc, rep_doc)
    return 0 if report.ok else 1


def cmd_trivialize(args):
    twist = verify_twist(_load_twist_tensor(args))
    # raises unless Delta(x)(x^{-1} (x) x^{-1}) = J exactly
    x = trivialize_symmetric_twist(twist)
    report = CheckReport(f"symmetric twist trivialization over "
                         f"{twist.group.name}")
    report.add("gauge of the trivial twist by x reproduces the twist", True)
    doc = formats.format_tensor(x)
    rep_doc = formats.format_report(report,
                                    preamble=[("command", "trivialize")])
    _emit(args, doc, rep_doc)
    return 0


def cmd_build_twist(args):
    if (args.from_1cocycle is None) == (args.from_rep is None):
        raise FormatError("build-twist needs exactly one of --from-1cocycle "
                          "or --from-rep")
    if args.from_1cocycle:
        data_list = formats.parse_cocycles(_read(args.from_1cocycle))
        if not 0 <= args.index < len(data_list):
            raise FormatError(f"--index {args.index} is out of range for "
                              f"{len(data_list)} cocycles")
        data = data_list[args.index]
        twist = twist_from_1cocycle(data, field=_field_of(args))
    else:
        rep = formats.parse_rep(_read(args.from_rep))
        twist, _ = twist_from_rep(rep, seed=args.seed, with_images=True)
    report = check_twist(twist.J)
    r = _full_r_matrix(twist, args)
    for item in check_triangular(twist.group, twist.coproduct_basis,
                                 r).checks:
        report.checks.append(item)
    doc = formats.format_tensor(twist.J)
    rep_doc = formats.format_report(report,
                                    preamble=[("command", "build-twist")])
    _emit(args, doc, rep_doc)
    return 0 if report.ok else 1


def cmd_find_1cocycles(args):
    G = _abelian_flag(args.G, "--G")
    A = _abelian_flag(args.A, "--A")
    if args.action == "trivial":
        action = trivial_action(G, A)
    else:
        action = formats.parse_action(_read(args.action), G=G, A=A)
    found = find_bijective_1cocycles(G, A, action)
    report = CheckReport(f"bijective 1-cocycles {G.name} -> {A.name}")
    report.add(f"search complete, {len(found)} found", True)
    doc = formats.format_cocycles(action, [d.pi for d in found])
    rep_doc = formats.format_report(report,
                                    preamble=[("command", "find-1cocycles")])
    _emit(args, doc, rep_doc)
    return 0


def cmd_verify_eq2345(args):
    data_list = formats.parse_cocycles(_read(args.datafile))
    if args.index is not None:
        if not 0 <= args.index < len(data_list):
            raise FormatError(f"--index {args.index} is out of range for "
                              f"{len(data_list)} cocycles")
        data_list = [data_list[args.index]]
    field = _field_of(args)
    report = CheckReport("structure identities of the closed-form twist")
    for k, data in enumerate(data_list):
        sub = verify_eq2345(data, field=field)
        prefix = f"pi {k}: " if len(data_list) > 1 else ""
        for name, ok, witness in sub.checks:
            report.checks.append((prefix + name, ok, witness))
    doc = formats.format_report(report,
                                preamble=[("command", "verify-eq2345")])
    _emit(args, doc)
    return 0 if report.ok else 1


def cmd_classify(args):
    order = _inventory_order(args.order, "--order")
    field = _field_of(args)
    dedup = True if args.dedup else None
    data = enumerate_quadruples(order, field=field, dedup=dedup,
                                seed=args.seed)
    columns = ["group", "|H|", "dim V", "u", "minimal", "grouplikes",
               "solvable", "class size", "certificates"]
    rows = []
    all_ok = True
    for datum in data:
        name, h, dim, u, minimal, grouplikes, solvable = datum.summary_row()
        all_ok = all_ok and datum.ok
        rows.append([name, h, dim, u, _yes(minimal), grouplikes,
                     _yes(solvable), datum.class_size,
                     "pass" if datum.ok else "fail"])
    doc = formats.format_table(
        "classify",
        [("field", formats.field_spec_string(field.spec())),
         ("order", order), ("entries", len(rows))],
        columns, rows, status=all_ok)
    _emit(args, doc)
    return 0 if all_ok else 1


def cmd_catalog(args):
    if args.what != "list":
        raise FormatError(f"unknown catalog action {args.what!r}")
    groups = builtin_groups(_inventory_order(args.max_order, "--max-order"))
    columns = ["index", "name", "order", "abelian", "solvable"]
    rows = [[i, G.name, G.order, _yes(G.is_abelian()), _yes(G.is_solvable())]
            for i, G in enumerate(groups)]
    doc = formats.format_table("groups", [("max-order", args.max_order)],
                               columns, rows)
    _emit(args, doc)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p, field=True, seed=False, out=True):
    if field:
        p.add_argument("--field", default="cyclotomic",
                       help="scalar field: cyclotomic, fp:P or fp:P:N "
                            "(default cyclotomic)")
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for deterministic searches (default 0)")
    if out:
        p.add_argument("--out", help="write the main document here instead "
                                     "of stdout")


def _add_twist_input(p, with_u=True):
    p.add_argument("--twist", required=True, help="tensor document of rank 2")
    p.add_argument("--group", help="group document; must match the twist's "
                                   "embedded group block")
    if with_u:
        p.add_argument("--u", help="central involution label to fold in "
                                   "via R_u")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact construction and verification of Drinfeld twists "
                    "for finite group algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-twist",
                       help="check the twist identities of a tensor")
    _add_twist_input(p, with_u=False)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_verify_twist)

    p = sub.add_parser("r-matrix",
                       help="emit R = J21^{-1} J and check triangularity")
    _add_twist_input(p)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_r_matrix)

    p = sub.add_parser("drinfeld",
                       help="emit the Drinfeld element of the R-matrix")
    _add_twist_input(p)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_drinfeld)

    p = sub.add_parser("minimal",
                       help="check that the R-matrix legs span the group "
                            "algebra")
    _add_twist_input(p)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_minimal)

    p = sub.add_parser("movshev",
                       help="emit the dual algebra of the twisted coalgebra "
                            "and certify it")
    _add_twist_input(p, with_u=False)
    p.add_argument("--certify-simple", action="store_true",
                   help="check the matrix-algebra certificate only")
    p.add_argument("--regular", action="store_true",
                   help="check the regular character only")
    p.add_argument("--grouplikes", action="store_true",
                   help="count grouplikes of the twisted Hopf algebra only")
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_movshev)

    p = sub.add_parser("trivialize",
                       help="write a symmetric twist as a gauge of the "
                            "trivial one")
    _add_twist_input(p, with_u=False)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_trivialize)

    p = sub.add_parser("build-twist",
                       help="construct a verified twist from input data")
    p.add_argument("--from-1cocycle", help="cocycle document")
    p.add_argument("--from-rep", help="projective representation document")
    p.add_argument("--index", type=int, default=0,
                   help="which cocycle of the document to use (default 0)")
    p.add_argument("--u", help="central involution label to fold into the "
                               "triangularity check via R_u")
    _add_common(p, seed=True)
    p.set_defaults(handler=cmd_build_twist)

    p = sub.add_parser("find-1cocycles",
                       help="enumerate bijective 1-cocycles G -> A")
    p.add_argument("--G", required=True,
                   help="cyclic factors of G, e.g. 2,2")
    p.add_argument("--A", required=True,
                   help="cyclic factors of A, e.g. 4")
    p.add_argument("--action", default="trivial",
                   help="action document, or 'trivial' (default)")
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_find_1cocycles)

    p = sub.add_parser("verify-eq2345",
                       help="check the twisted structure identities of "
                            "cocycle data")
    p.add_argument("datafile", help="cocycle document")
    p.add_argument("--index", type=int, default=None,
                   help="check a single cocycle of the document")
    _add_common(p)
    p.set_defaults(handler=cmd_verify_eq2345)

    p = sub.add_parser("classify",
                       help="enumerate and certify all twist data of one "
                            "group order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dedup", action="store_true",
                   help="force merging of equivalent data (default: "
                        "automatic up to order 16)")
    _add_common(p, seed=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("catalog", help="inventory of built-in groups")
    p.add_argument("what", choices=["list"])
    p.add_argument("--max-order", type=int, default=16)
    _add_common(p, field=False)
    p.set_defaults(handler=cmd_catalog)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
