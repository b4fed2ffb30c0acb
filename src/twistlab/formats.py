"""Versioned text documents for groups, tensors, actions, cocycle data,
projective representations, and check reports.

Every document starts with the line `twistlab <kind> v1`.  Bodies consist
of keyword lines; blank lines and lines starting with `#` are skipped.  One
scanner checks the header and groups the body lines by key; each parser
then validates what it collected.
Scalars use the exact string forms of the scalars module, so documents
never contain floating point.  Writers emit keys in a fixed order and
entries in sorted index order: equal values produce identical bytes.
"""

from bisect import bisect
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


def _kind(lineno, header):
    parts = header.split()
    if len(parts) != 3 or parts[0] != "twistlab" or parts[2] != FORMAT_VERSION:
        raise FormatError(f"expected a 'twistlab <kind> {FORMAT_VERSION}' "
                          f"header, found {header!r}", lineno)
    return parts[1]


def _split_key(line):
    """(first word, the rest); both are empty for an empty line."""
    parts = line.split(None, 1) + ["", ""]
    return parts[0], parts[1]


def _collect(items, keys, where=None, stop=None):
    """The (lineno, rest) of each body line `key rest` in `items`, grouped by
    key in document order, up to a line whose key is `stop`.  A key outside
    `keys` is unexpected in `where`; with no `where` its whole lines are
    kept under None instead."""
    found = {key: [] for key in (*keys, None)}
    for lineno, line in items:
        key, rest = _split_key(line)
        if key == stop:
            break
        if key in found:
            found[key].append((lineno, rest))
        elif where is None:
            found[None].append((lineno, line))
        else:
            raise FormatError(f"unexpected key {key!r} in {where}", lineno)
    return found


def _scan(text, kind, keys, where=None, listing=False):
    """Check the `twistlab <kind> v1` header and _collect the body.

    A listing (report or table) must carry its header verbatim, its body
    ends at the `summary` line, and its other keys form the preamble.
    Elsewhere an unknown key is an error in `where`, by default the kind's
    document.
    """
    (lineno, header), *body = _body(text)
    if listing:
        if header != f"twistlab {kind} {FORMAT_VERSION}":
            raise FormatError(f"expected a {kind} document header, "
                              f"found {header!r}", lineno)
        return _collect(body, keys, stop="summary")
    found = _kind(lineno, header)
    if found != kind:
        raise FormatError(f"expected a {kind} document, found {found!r}",
                          lineno)
    return _collect(body, keys, where or f"{kind} document")


def _last(lines, read):
    """read(rest, lineno) of the last of a key's lines, or None.  Every line
    is read, so a bad one is reported even when a later one overrides it."""
    value = None
    for lineno, rest in lines:
        value = read(rest, lineno)
    return value


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


def _indexed(lines, key):
    """(lineno, indices, value text) of each `key i j ... : value` line."""
    for lineno, rest in lines:
        left, right = _colon_split(rest, lineno, key)
        yield lineno, _ints(left, lineno, f"{key} index"), right


def _put(entries, index, value, lineno, what):
    """entries[index] = value; a repeated index is refused."""
    if index in entries:
        raise FormatError(f"duplicate {what} {index}", lineno)
    entries[index] = value


def _labels(lines):
    """{index: (text, lineno)} of `label i text` lines."""
    labels = {}
    for lineno, rest in lines:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise FormatError("label line needs an index and a text", lineno)
        _put(labels, _int(parts[0], lineno, "label index"),
             (parts[1], lineno), lineno, "label")
    return labels


def _in_order(entries, count, where, what):
    """The values of {index: (value, lineno)} entries 0..count - 1; an
    index outside that range and a gap are refused."""
    for i, (_, lineno) in entries.items():
        if not 0 <= i < count:
            raise FormatError(f"{what} index {i} is outside 0..{count - 1}",
                              lineno)
    for i in range(count):
        if i not in entries:
            raise FormatError(f"{where} is missing {what} {i}")
    return [entries[i][0] for i in range(count)]


def _cyclic(factors, lineno, name=None):
    """The abelian group of a `factors` line."""
    try:
        return abelian_group(factors, name=name)
    except GroupError as exc:
        raise FormatError(f"bad cyclic factors {factors}: {exc}", lineno)


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


def _field_and_size(found, kind, size):
    """The field and the positive `size` (rank or dim) of a document."""
    field = _last(found["field"], _parse_field_line)
    n = _last(found[size], lambda rest, lineno: _int(rest, lineno, size))
    if field is None:
        raise FormatError(f"{kind} document is missing a field line")
    if n is None or n < 1:
        raise FormatError(f"{kind} document is missing a positive {size} "
                          f"line")
    return field, n


def _scalar_binder(field, conductor=1):
    """Parser for one document's scalars in `field`.  It refuses the entry
    that takes the lcm of `conductor` and the conductors so far past
    MAX_CONDUCTOR, which arithmetic between the entries would need."""

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


_GROUP_KEYS = ("name", "order", "factors", "label", "row")


def _group(found):
    """The group of a group block's lines, collected under _GROUP_KEYS."""
    name = found["name"][-1][1] if found["name"] else "G"
    order = _last(found["order"],
                  lambda rest, lineno: _int(rest, lineno, "order"))
    factors = _last(found["factors"], lambda rest, lineno: (
        _ints(rest, lineno, "factor"), lineno))
    labels, rows = _labels(found["label"]), {}
    for lineno, rest in found["row"]:
        toks = rest.split()
        if not toks:
            raise FormatError("row line needs an index and entries", lineno)
        _put(rows, _int(toks[0], lineno, "row index"),
             ([_int(t, lineno, "table entry") for t in toks[1:]], lineno),
             lineno, "row")
    if order is None:
        raise FormatError("group block is missing an order line")
    if factors is not None:
        g = _cyclic(*factors, name=name)
        if g.order != order:
            raise FormatError(
                f"factors {factors[0]} give order {g.order}, not {order}")
        for entries, what, want in ((rows, "table row", g.table),
                                    (labels, "label", g.labels)):
            for i, (got, lineno) in entries.items():
                if not 0 <= i < order or got != want[i]:
                    raise FormatError(f"{what} {i} does not match the "
                                      f"declared factors", lineno)
        return g
    table = _in_order(rows, order, "group block", "row")
    for i, row in enumerate(table):
        if len(row) != order:
            raise FormatError(
                f"row {i} has {len(row)} entries, expected {order}", rows[i][1])
    label_list = (_in_order(labels, order, "group block", "label")
                  if labels else None)
    try:
        return FiniteGroup(table, labels=label_list, name=name)
    except GroupError as exc:
        raise FormatError(f"invalid group table: {exc}")


def parse_group(text):
    return _group(_scan(text, "group", _GROUP_KEYS, "group block"))


def _embedded_group(lines):
    """The group of a document's `group ...` lines, or None without any."""
    return _group(_collect(lines, _GROUP_KEYS, "group block")) if lines \
        else None


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
    found = _scan(text, "tensor", ("field", "rank", "group", "entry"))
    field, rank = _field_and_size(found, "tensor", "rank")
    embedded = _embedded_group(found["group"])
    if group is not None and embedded is not None:
        g = _check_same_group(group, embedded)
    elif group is not None:
        g = group
    elif embedded is not None:
        g = embedded
    else:
        raise FormatError("tensor document carries no group block and no "
                          "group was supplied")
    # Fourier and central-split inversion use the roots of unity of the
    # group's exponent
    bind = _scalar_binder(field, g.exponent())
    coeffs = {}
    for lineno, idx, right in _indexed(found["entry"], "entry"):
        idx = tuple(idx)
        if len(idx) != rank:
            raise FormatError(
                f"entry has {len(idx)} indices, expected rank {rank}", lineno)
        for i in idx:
            if not 0 <= i < g.order:
                raise FormatError(
                    f"entry index {i} is out of range for order {g.order}",
                    lineno)
        _put(coeffs, idx, bind(right, lineno), lineno, "entry at")
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


_ACTION_KEYS = ("G", "A", "perm")


def _side_group(side, lines, requested):
    """The group of the last `<side> factors ...` line, or None without one;
    it must match `requested` when one is given."""
    def read(rest, lineno):
        sub, rest = _split_key(rest)
        if sub != "factors":
            raise FormatError(f"unexpected key '{side} {sub}'", lineno)
        return _ints(rest, lineno, "factor"), lineno
    if not lines:
        return None
    factors, lineno = _last(lines, read)
    group = _cyclic(factors, lineno)
    if requested is None:
        return group
    if not isinstance(requested, AbelianGroup) or \
            requested.factors != group.factors:
        raise FormatError(f"document {side} factors {tuple(factors)} do "
                          f"not match the requested group", lineno)
    return requested


def _action(found, G=None, A=None):
    """The action of a document's lines, collected under _ACTION_KEYS."""
    G = _side_group("G", found["G"], G)
    A = _side_group("A", found["A"], A)
    perms = {}
    for lineno, rest in found["perm"]:
        left, right = _colon_split(rest, lineno, "perm")
        _put(perms, _int(left, lineno, "perm index"),
             (_ints(right, lineno, "perm entry"), lineno), lineno, "perm")
    if G is None or A is None:
        raise FormatError("action document needs 'G factors' and 'A factors'")
    perm_list = _in_order(perms, G.order, "action document", "perm")
    for g, p in enumerate(perm_list):
        if sorted(p) != list(range(A.order)):
            raise FormatError(f"perm {g} is not a permutation of "
                              f"0..{A.order - 1}", perms[g][1])
    try:
        return GroupAction(G, A, perm_list)
    except GroupError as exc:
        raise FormatError(f"invalid action: {exc}")


def parse_action(text, G=None, A=None):
    return _action(_scan(text, "action", _ACTION_KEYS), G=G, A=A)


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
    # unknown keys are reported as the action part's
    found = _scan(text, "cocycle", (*_ACTION_KEYS, "pi"), "action document")
    action = _action(found)
    out = []
    for lineno, rest in found["pi"]:
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
    found = _scan(text, "rep", ("field", "dim", "group", "mat"))
    field, dim = _field_and_size(found, "rep", "dim")
    if not found["group"]:
        raise FormatError("rep document is missing its group block")
    group = _embedded_group(found["group"])
    bind, entries = _scalar_binder(field), {}
    for lineno, idx, right in _indexed(found["mat"], "mat"):
        if len(idx) != 3:
            raise FormatError("mat line needs element, row and column indices",
                              lineno)
        h, i, j = idx
        if not (0 <= h < group.order and 0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"mat index ({h}, {i}, {j}) is out of range",
                              lineno)
        _put(entries, (h, i, j), bind(right, lineno), lineno, "mat entry at")
    zero = field.zero()
    mats = [[[entries.get((h, i, j), zero) for j in range(dim)]
             for i in range(dim)] for h in range(group.order)]
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
    found = _scan(text, "algebra", ("field", "dim", "label", "unit", "sc"))
    field, dim = _field_and_size(found, "algebra", "dim")
    labels, unit = _labels(found["label"]), {}
    for lineno, rest in found["unit"]:
        left, right = _colon_split(rest, lineno, "unit")
        _put(unit, _int(left, lineno, "unit index"), (right, lineno), lineno,
             "unit")
    bind, sc = _scalar_binder(field), {}
    for lineno, idx, right in _indexed(found["sc"], "sc"):
        if len(idx) != 3 or not all(0 <= x < dim for x in idx):
            raise FormatError(f"sc indices {idx} are out of range", lineno)
        _put(sc, tuple(idx), bind(right, lineno), lineno, "sc entry at")
    m = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), value in sc.items():
        m[i][j][k] = value
    unit_vec = {}
    for k, (right, lineno) in unit.items():
        if not 0 <= k < dim:
            raise FormatError(f"unit index {k} is out of range", lineno)
        unit_vec[k] = bind(right, lineno)
    label_list = (_in_order(labels, dim, "algebra document", "label")
                  if labels else None)
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
    found = _scan(text, "report", ("title", "check", "witness", "status"),
                  listing=True)
    checks = []
    for lineno, rest in found["check"]:
        verdict, name = _split_key(rest)
        if verdict not in ("pass", "fail"):
            raise FormatError(f"check verdict must be pass or fail, "
                              f"found {verdict!r}", lineno)
        checks.append([name, verdict == "pass", ""])
    # a witness belongs to the last check above it
    check_lines = [lineno for lineno, _ in found["check"]]
    for lineno, rest in found["witness"]:
        above = bisect(check_lines, lineno)
        if not above:
            raise FormatError("witness line before any check", lineno)
        checks[above - 1][2] = rest
    status = None
    for lineno, rest in found["status"]:
        if rest not in ("pass", "fail"):
            raise FormatError(f"status must be pass or fail, found "
                              f"{rest!r}", lineno)
        status = rest == "pass"
    if status is None:
        raise FormatError("report document is missing a status line")
    title = found["title"][-1][1] if found["title"] else ""
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
    found = _scan(text, kind, ("columns", "row", "status"), listing=True)
    rows = []
    for lineno, rest in found["row"]:
        left, right = _colon_split(rest, lineno, "row")
        idx = _int(left, lineno, "row index")
        if idx != len(rows):
            raise FormatError(f"row indices must count up from 0, "
                              f"found {idx}", lineno)
        rows.append(right.split(" | "))
    if not found["columns"]:
        raise FormatError(f"{kind} document is missing a columns line")
    columns = found["columns"][-1][1].split(" | ")
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise FormatError(f"row {i} has {len(row)} cells for "
                              f"{len(columns)} columns")
    status = found["status"][-1][1] == "pass" if found["status"] else None
    preamble = dict(_split_key(line) for _, line in found[None])
    return preamble, columns, rows, status
