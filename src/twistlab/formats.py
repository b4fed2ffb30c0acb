"""Versioned text documents for groups, tensors, actions, cocycle data,
projective representations, and check reports.

Every document starts with the line `twistlab <kind> v1`.  Bodies consist
of keyword lines; blank lines and lines starting with `#` are skipped.
Scalars use the exact string forms of the scalars module, so documents
never contain floating point.  Writers emit keys in a fixed order and
entries in sorted index order: equal values produce identical bytes.
"""

from math import lcm

from .scalars import (MAX_CONDUCTOR, Cyc, Fp, ScalarError, make_field,
                      parse_field_spec, parse_scalar)
from .groups import (AbelianGroup, FiniteGroup, GroupAction, GroupError,
                     abelian_group)
from .algebra import TensorElement
from .constructions import Bijective1Cocycle, ConstructionError, ProjectiveRep

FORMAT_VERSION = "v1"


class FormatError(ValueError):
    """Malformed document; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# line scanning

def _body(text):
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        items.append((lineno, line))
    if not items:
        raise FormatError("empty document")
    return items


def document_kind(text):
    """The <kind> of the header line, for dispatch diagnostics."""
    lineno, line = _body(text)[0]
    parts = line.split()
    if len(parts) != 3 or parts[0] != "twistlab" or parts[2] != FORMAT_VERSION:
        raise FormatError(f"expected a 'twistlab <kind> {FORMAT_VERSION}' "
                          f"header, found {line!r}", lineno)
    return parts[1]


def _expect(text, kind):
    items = _body(text)
    found = document_kind(text)
    if found != kind:
        raise FormatError(f"expected a {kind} document, found {found!r}",
                          items[0][0])
    return items[1:]


def _split_key(line, lineno):
    parts = line.split(None, 1)
    if len(parts) == 1:
        return parts[0], ""
    return parts[0], parts[1]


def _int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"{what} must be an integer, found {tok!r}", lineno)


def _ints(rest, lineno, what):
    return [_int(tok, lineno, what) for tok in rest.split()]


def _colon_split(rest, lineno, key):
    if " : " not in rest:
        raise FormatError(f"{key} line needs ' : ' between indices and value",
                          lineno)
    left, right = rest.split(" : ", 1)
    return left.strip(), right.strip()


def field_spec_string(spec):
    """Inverse of parse_field_spec on normalized specs."""
    if spec.kind == "cyclotomic":
        if spec.conductor <= 1:
            return "cyclotomic"
        return f"cyclotomic:{spec.conductor}"
    if spec.kind == "prime":
        return f"fp:{spec.modulus}:{spec.root_order}"
    raise FormatError(f"unknown field kind {spec.kind!r}")


def _parse_field_line(rest, lineno):
    try:
        return make_field(parse_field_spec(rest))
    except (ScalarError, ValueError) as exc:
        raise FormatError(f"bad field spec {rest!r}: {exc}", lineno)


def _scalar_binder(field):
    """Parser for one document's scalars in `field`.  It refuses the entry
    that takes the lcm of the conductors so far past MAX_CONDUCTOR, which
    arithmetic between the entries would need."""
    conductor = 1

    def bind(text, lineno):
        nonlocal conductor
        try:
            value = parse_scalar(text)
        except (ScalarError, ValueError) as exc:
            raise FormatError(f"bad scalar {text!r}: {exc}", lineno)
        if field.kind == "cyclotomic":
            if not isinstance(value, Cyc):
                raise FormatError(
                    f"scalar {text!r} is not a cyclotomic value", lineno)
            conductor = lcm(conductor, value.n)
            if conductor > MAX_CONDUCTOR:
                raise FormatError(
                    f"bad scalar {text!r}: the document needs conductor "
                    f"{conductor}, outside 1..{MAX_CONDUCTOR}", lineno)
        elif not isinstance(value, Fp) or value.p != field.p:
            raise FormatError(
                f"scalar {text!r} does not live in F_{field.p}", lineno)
        return value

    return bind


# ---------------------------------------------------------------------------
# groups

def group_lines(group):
    out = [f"name {group.name}", f"order {group.order}"]
    if isinstance(group, AbelianGroup):
        out.append("factors " + " ".join(str(d) for d in group.factors))
    for i, lab in enumerate(group.labels):
        out.append(f"label {i} {lab}")
    for i, row in enumerate(group.table):
        out.append(f"row {i} " + " ".join(str(x) for x in row))
    return out


def format_group(group):
    return "\n".join([f"twistlab group {FORMAT_VERSION}", *group_lines(group)]) + "\n"


def _parse_group_items(items):
    name, order, factors = "G", None, None
    labels, rows = {}, {}
    for lineno, line in items:
        key, rest = _split_key(line, lineno)
        if key == "name":
            name = rest
        elif key == "order":
            order = _int(rest, lineno, "order")
        elif key == "factors":
            factors = _ints(rest, lineno, "factor")
        elif key == "label":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise FormatError("label line needs an index and a text",
                                  lineno)
            labels[_int(parts[0], lineno, "label index")] = parts[1]
        elif key == "row":
            toks = rest.split()
            if not toks:
                raise FormatError("row line needs an index and entries", lineno)
            idx = _int(toks[0], lineno, "row index")
            rows[idx] = ([_int(t, lineno, "table entry") for t in toks[1:]],
                         lineno)
        else:
            raise FormatError(f"unexpected key {key!r} in group block", lineno)
    if order is None:
        raise FormatError("group block is missing an order line")
    if factors is not None:
        try:
            g = abelian_group(factors, name=name)
        except GroupError as exc:
            raise FormatError(f"bad cyclic factors {factors}: {exc}")
        if g.order != order:
            raise FormatError(
                f"factors {factors} give order {g.order}, not {order}")
        for i, (row, lineno) in rows.items():
            if i >= order or row != g.table[i]:
                raise FormatError(
                    f"table row {i} does not match the declared factors",
                    lineno)
        for i, lab in labels.items():
            if i >= order or lab != g.labels[i]:
                raise FormatError(f"label {i} does not match the declared "
                                  f"factors")
        return g
    table = []
    for i in range(order):
        if i not in rows:
            raise FormatError(f"group block is missing row {i}")
        row, lineno = rows[i]
        if len(row) != order:
            raise FormatError(
                f"row {i} has {len(row)} entries, expected {order}", lineno)
        table.append(row)
    if labels:
        label_list = []
        for i in range(order):
            if i not in labels:
                raise FormatError(f"group block is missing label {i}")
            label_list.append(labels[i])
    else:
        label_list = None
    try:
        return FiniteGroup(table, labels=label_list, name=name)
    except GroupError as exc:
        raise FormatError(f"invalid group table: {exc}")


def parse_group(text):
    return _parse_group_items(_expect(text, "group"))


def _check_same_group(supplied, embedded):
    if supplied.order != embedded.order or supplied.table != embedded.table:
        raise FormatError(
            f"document group {embedded.name!r} does not match the supplied "
            f"group {supplied.name!r}")
    return supplied


# ---------------------------------------------------------------------------
# tensors over group algebras

def format_tensor(t):
    lines = [f"twistlab tensor {FORMAT_VERSION}",
             "field " + field_spec_string(t.field.spec()),
             f"rank {t.rank}"]
    lines += ["group " + l for l in group_lines(t.group)]
    for key in sorted(t.coeffs):
        v = t.coeffs[key]
        if not v:
            continue
        lines.append("entry " + " ".join(map(str, key)) + " : " + str(v))
    return "\n".join(lines) + "\n"


def parse_tensor(text, group=None):
    """Rebuild a TensorElement; `group` overrides the embedded group block.

    When both are present the multiplication tables must agree, and the
    supplied group object is used so the result composes with values built
    on it.
    """
    field, rank = None, None
    group_items, entries = [], []
    for lineno, line in _expect(text, "tensor"):
        key, rest = _split_key(line, lineno)
        if key == "field":
            field = _parse_field_line(rest, lineno)
        elif key == "rank":
            rank = _int(rest, lineno, "rank")
        elif key == "group":
            group_items.append((lineno, rest))
        elif key == "entry":
            entries.append((lineno, rest))
        else:
            raise FormatError(f"unexpected key {key!r} in tensor document",
                              lineno)
    if field is None:
        raise FormatError("tensor document is missing a field line")
    if rank is None or rank < 1:
        raise FormatError("tensor document is missing a positive rank line")
    embedded = _parse_group_items(group_items) if group_items else None
    if group is not None and embedded is not None:
        g = _check_same_group(group, embedded)
    elif group is not None:
        g = group
    elif embedded is not None:
        g = embedded
    else:
        raise FormatError("tensor document carries no group block and no "
                          "group was supplied")
    bind = _scalar_binder(field)
    coeffs = {}
    for lineno, rest in entries:
        left, right = _colon_split(rest, lineno, "entry")
        idx = tuple(_ints(left, lineno, "entry index"))
        if len(idx) != rank:
            raise FormatError(
                f"entry has {len(idx)} indices, expected rank {rank}", lineno)
        for i in idx:
            if not 0 <= i < g.order:
                raise FormatError(
                    f"entry index {i} is out of range for order {g.order}",
                    lineno)
        if idx in coeffs:
            raise FormatError(f"duplicate entry at {idx}", lineno)
        coeffs[idx] = bind(right, lineno)
    return TensorElement(g, rank, field, coeffs)


# ---------------------------------------------------------------------------
# actions of one abelian group on another

def action_lines(action):
    out = ["G factors " + " ".join(str(d) for d in action.G.factors),
           "A factors " + " ".join(str(d) for d in action.A.factors)]
    for g, p in enumerate(action.perms):
        out.append(f"perm {g} : " + " ".join(map(str, p)))
    return out


def format_action(action):
    if not isinstance(action.G, AbelianGroup) or not isinstance(action.A, AbelianGroup):
        raise FormatError("action documents need explicit cyclic factors on "
                          "both groups")
    return "\n".join([f"twistlab action {FORMAT_VERSION}",
                      *action_lines(action)]) + "\n"


def _parse_action_items(items, G=None, A=None):
    g_factors, a_factors = None, None
    perms = {}
    for lineno, line in items:
        key, rest = _split_key(line, lineno)
        if key == "G":
            sub, rest2 = _split_key(rest, lineno)
            if sub != "factors":
                raise FormatError(f"unexpected key 'G {sub}'", lineno)
            g_factors = _ints(rest2, lineno, "factor")
        elif key == "A":
            sub, rest2 = _split_key(rest, lineno)
            if sub != "factors":
                raise FormatError(f"unexpected key 'A {sub}'", lineno)
            a_factors = _ints(rest2, lineno, "factor")
        elif key == "perm":
            left, right = _colon_split(rest, lineno, "perm")
            perms[_int(left, lineno, "perm index")] = (
                _ints(right, lineno, "perm entry"), lineno)
        else:
            raise FormatError(f"unexpected key {key!r} in action document",
                              lineno)
    if g_factors is None or a_factors is None:
        raise FormatError("action document needs 'G factors' and 'A factors'")
    gf, af = tuple(g_factors), tuple(a_factors)
    if G is None:
        G = abelian_group(gf)
    elif not isinstance(G, AbelianGroup) or G.factors != AbelianGroup(gf).factors:
        raise FormatError(f"document G factors {gf} do not match the "
                          f"requested group")
    if A is None:
        A = abelian_group(af)
    elif not isinstance(A, AbelianGroup) or A.factors != AbelianGroup(af).factors:
        raise FormatError(f"document A factors {af} do not match the "
                          f"requested group")
    perm_list = []
    for g in range(G.order):
        if g not in perms:
            raise FormatError(f"action document is missing perm {g}")
        p, lineno = perms[g]
        if sorted(p) != list(range(A.order)):
            raise FormatError(
                f"perm {g} is not a permutation of 0..{A.order - 1}", lineno)
        perm_list.append(p)
    try:
        return GroupAction(G, A, perm_list)
    except GroupError as exc:
        raise FormatError(f"invalid action: {exc}")


def parse_action(text, G=None, A=None):
    return _parse_action_items(_expect(text, "action"), G=G, A=A)


# ---------------------------------------------------------------------------
# bijective 1-cocycle data files

def format_cocycles(action, pis):
    """One document holding the action and any number of cocycles pi."""
    lines = [f"twistlab cocycle {FORMAT_VERSION}", *action_lines(action)]
    for k, pi in enumerate(pis):
        lines.append(f"pi {k} : " + " ".join(map(str, pi)))
    return "\n".join(lines) + "\n"


def parse_cocycles(text):
    """All cocycles of the document, validated, in document order."""
    items = _expect(text, "cocycle")
    action_items, pi_items = [], []
    for lineno, line in items:
        key, _ = _split_key(line, lineno)
        if key == "pi":
            pi_items.append((lineno, line))
        else:
            action_items.append((lineno, line))
    action = _parse_action_items(action_items)
    out = []
    for lineno, line in pi_items:
        _, rest = _split_key(line, lineno)
        left, right = _colon_split(rest, lineno, "pi")
        k = _int(left, lineno, "pi index")
        if k != len(out):
            raise FormatError(f"pi indices must count up from 0, found {k}",
                              lineno)
        pi = _ints(right, lineno, "pi value")
        if len(pi) != action.G.order:
            raise FormatError(
                f"pi {k} has {len(pi)} values, expected {action.G.order}",
                lineno)
        try:
            out.append(Bijective1Cocycle(action.G, action.A, action, pi))
        except ConstructionError as exc:
            raise FormatError(f"pi {k} is invalid: {exc}", lineno)
    if not out:
        raise FormatError("cocycle document holds no pi lines")
    return out


# ---------------------------------------------------------------------------
# projective representations

def format_rep(rep):
    lines = [f"twistlab rep {FORMAT_VERSION}",
             "field " + field_spec_string(rep.field.spec()),
             f"dim {rep.dim}"]
    lines += ["group " + l for l in group_lines(rep.group)]
    for h in range(rep.group.order):
        mat = rep.matrices[h]
        for i in range(rep.dim):
            for j in range(rep.dim):
                v = mat[i][j]
                if v:
                    lines.append(f"mat {h} {i} {j} : {v}")
    return "\n".join(lines) + "\n"


def parse_rep(text):
    field, dim = None, None
    group_items, mat_items = [], []
    for lineno, line in _expect(text, "rep"):
        key, rest = _split_key(line, lineno)
        if key == "field":
            field = _parse_field_line(rest, lineno)
        elif key == "dim":
            dim = _int(rest, lineno, "dim")
        elif key == "group":
            group_items.append((lineno, rest))
        elif key == "mat":
            mat_items.append((lineno, rest))
        else:
            raise FormatError(f"unexpected key {key!r} in rep document",
                              lineno)
    if field is None:
        raise FormatError("rep document is missing a field line")
    if dim is None or dim < 1:
        raise FormatError("rep document is missing a positive dim line")
    if not group_items:
        raise FormatError("rep document is missing its group block")
    group = _parse_group_items(group_items)
    zero = field.zero()
    mats = [[[zero] * dim for _ in range(dim)] for _ in range(group.order)]
    bind = _scalar_binder(field)
    for lineno, rest in mat_items:
        left, right = _colon_split(rest, lineno, "mat")
        idx = _ints(left, lineno, "mat index")
        if len(idx) != 3:
            raise FormatError("mat line needs element, row and column indices",
                              lineno)
        h, i, j = idx
        if not (0 <= h < group.order and 0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"mat index ({h}, {i}, {j}) is out of range",
                              lineno)
        mats[h][i][j] = bind(right, lineno)
    try:
        return ProjectiveRep(group, mats, field)
    except ConstructionError as exc:
        raise FormatError(f"matrices do not form a projective "
                          f"representation: {exc}")


# ---------------------------------------------------------------------------
# structure-constant algebras

def format_algebra(alg):
    lines = [f"twistlab algebra {FORMAT_VERSION}",
             "field " + field_spec_string(alg.field.spec()),
             f"dim {alg.dim}"]
    for i, lab in enumerate(alg.labels):
        lines.append(f"label {i} {lab}")
    for k in sorted(alg.unit):
        lines.append(f"unit {k} : {alg.unit[k]}")
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in sorted(alg.m[i][j]):
                v = alg.m[i][j][k]
                if v:
                    lines.append(f"sc {i} {j} {k} : {v}")
    return "\n".join(lines) + "\n"


def parse_algebra(text):
    from .algebra import AlgebraError, StructureConstantAlgebra
    field, dim = None, None
    labels, unit, sc = {}, {}, []
    for lineno, line in _expect(text, "algebra"):
        key, rest = _split_key(line, lineno)
        if key == "field":
            field = _parse_field_line(rest, lineno)
        elif key == "dim":
            dim = _int(rest, lineno, "dim")
        elif key == "label":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise FormatError("label line needs an index and a text",
                                  lineno)
            labels[_int(parts[0], lineno, "label index")] = parts[1]
        elif key == "unit":
            left, right = _colon_split(rest, lineno, "unit")
            unit[_int(left, lineno, "unit index")] = (right, lineno)
        elif key == "sc":
            left, right = _colon_split(rest, lineno, "sc")
            sc.append((_ints(left, lineno, "sc index"), right, lineno))
        else:
            raise FormatError(f"unexpected key {key!r} in algebra document",
                              lineno)
    if field is None:
        raise FormatError("algebra document is missing a field line")
    if dim is None or dim < 1:
        raise FormatError("algebra document is missing a positive dim line")
    m = [[{} for _ in range(dim)] for _ in range(dim)]
    bind = _scalar_binder(field)
    for idx, right, lineno in sc:
        if len(idx) != 3 or not all(0 <= x < dim for x in idx):
            raise FormatError(f"sc indices {idx} are out of range", lineno)
        i, j, k = idx
        if k in m[i][j]:
            raise FormatError(f"duplicate sc entry at {tuple(idx)}", lineno)
        m[i][j][k] = bind(right, lineno)
    unit_vec = {}
    for k, (right, lineno) in unit.items():
        if not 0 <= k < dim:
            raise FormatError(f"unit index {k} is out of range", lineno)
        unit_vec[k] = bind(right, lineno)
    if labels:
        label_list = []
        for i in range(dim):
            if i not in labels:
                raise FormatError(f"algebra document is missing label {i}")
            label_list.append(labels[i])
    else:
        label_list = None
    try:
        return StructureConstantAlgebra(m, unit_vec, field, labels=label_list)
    except AlgebraError as exc:
        raise FormatError(f"structure constants do not form a unital "
                          f"associative algebra: {exc}")


# ---------------------------------------------------------------------------
# check reports

def format_report(report, preamble=()):
    """Machine-readable check lines followed by the human summary.

    The machine section is one `check pass|fail <name>` line per check, a
    `witness <text>` line directly after each failing check that has one,
    and a final `status pass|fail` line.
    """
    lines = [f"twistlab report {FORMAT_VERSION}"]
    for key, value in preamble:
        lines.append(f"{key} {value}")
    lines.append(f"title {report.title}")
    for name, ok, witness in report.checks:
        lines.append(f"check {'pass' if ok else 'fail'} {name}")
        if witness and not ok:
            lines.append(f"witness {witness}")
    lines.append(f"status {'pass' if report.ok else 'fail'}")
    lines.append("summary")
    for line in report.summary().splitlines():
        lines.append("  " + line)
    return "\n".join(lines) + "\n"


def parse_report(text):
    """(title, [(name, ok, witness)], status) of a report document.

    Keys other than the check grammar are collected silently: commands put
    their own preamble lines (field, seed, ...) before the title.
    """
    title, checks, status = "", [], None
    in_summary = False
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if in_summary:
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != f"twistlab report {FORMAT_VERSION}":
                raise FormatError(f"expected a report document header, "
                                  f"found {line!r}", lineno)
            header_seen = True
            continue
        key, rest = _split_key(line, lineno)
        if key == "title":
            title = rest
        elif key == "check":
            verdict, name = _split_key(rest, lineno)
            if verdict not in ("pass", "fail"):
                raise FormatError(f"check verdict must be pass or fail, "
                                  f"found {verdict!r}", lineno)
            checks.append([name, verdict == "pass", ""])
        elif key == "witness":
            if not checks:
                raise FormatError("witness line before any check", lineno)
            checks[-1][2] = rest
        elif key == "status":
            if rest not in ("pass", "fail"):
                raise FormatError(f"status must be pass or fail, found "
                                  f"{rest!r}", lineno)
            status = rest == "pass"
        elif key == "summary":
            in_summary = True
    if not header_seen:
        raise FormatError("empty document")
    if status is None:
        raise FormatError("report document is missing a status line")
    return title, [tuple(c) for c in checks], status


# ---------------------------------------------------------------------------
# tables

def format_table(kind, preamble, columns, rows, status=None):
    """A listing document: one `row i : a | b | ...` line per entry.

    The summary section repeats the table with aligned columns for reading.
    """
    lines = [f"twistlab {kind} {FORMAT_VERSION}"]
    for key, value in preamble:
        lines.append(f"{key} {value}")
    lines.append("columns " + " | ".join(columns))
    cells = [[str(c) for c in row] for row in rows]
    for i, row in enumerate(cells):
        lines.append(f"row {i} : " + " | ".join(row))
    if status is not None:
        lines.append(f"status {'pass' if status else 'fail'}")
    lines.append("summary")
    widths = [len(c) for c in columns]
    for row in cells:
        for k, c in enumerate(row):
            widths[k] = max(widths[k], len(c))
    header = "  ".join(c.ljust(widths[k]) for k, c in enumerate(columns))
    lines.append("  " + header.rstrip())
    for row in cells:
        body = "  ".join(c.ljust(widths[k]) for k, c in enumerate(row))
        lines.append("  " + body.rstrip())
    return "\n".join(lines) + "\n"


def parse_table(text, kind):
    """(preamble dict, columns, rows, status) of a listing document."""
    preamble, columns, rows, status = {}, None, [], None
    in_summary = False
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if in_summary:
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != f"twistlab {kind} {FORMAT_VERSION}":
                raise FormatError(f"expected a {kind} document header, "
                                  f"found {line!r}", lineno)
            header_seen = True
            continue
        key, rest = _split_key(line, lineno)
        if key == "columns":
            columns = rest.split(" | ")
        elif key == "row":
            left, right = _colon_split(rest, lineno, "row")
            idx = _int(left, lineno, "row index")
            if idx != len(rows):
                raise FormatError(f"row indices must count up from 0, "
                                  f"found {idx}", lineno)
            rows.append(right.split(" | "))
        elif key == "status":
            status = rest == "pass"
        elif key == "summary":
            in_summary = True
        else:
            preamble[key] = rest
    if not header_seen:
        raise FormatError("empty document")
    if columns is None:
        raise FormatError(f"{kind} document is missing a columns line")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise FormatError(f"row {i} has {len(row)} cells for "
                              f"{len(columns)} columns")
    return preamble, columns, rows, status
