"""Document formats and the command line surface."""

import hashlib

import pytest

from twistlab.scalars import CyclotomicField, PrimeField
from twistlab.groups import (MAX_ABELIAN_ORDER, abelian_group,
                             action_from_generator_images, dihedral,
                             make_cyclic, symmetric, trivial_action)
from twistlab.algebra import (TensorElement, algebra_invert, hopf_coproduct,
                              hopf_counit)
from twistlab.twists import gauge_transform, identity_twist, verify_twist
from twistlab.constructions import (find_bijective_1cocycles, heisenberg_rep,
                                    twist_from_1cocycle)
from twistlab.movshev import dual_movshev
from twistlab import formats
from twistlab.formats import FormatError
from twistlab.cli import main


def v4_cocycles():
    G = abelian_group((2, 2))
    return find_bijective_1cocycles(G, G, trivial_action(G, G))


# ---------------------------------------------------------------------------
# document round trips

def test_group_roundtrip_keeps_type():
    for G in (abelian_group((2, 4)), dihedral(4), make_cyclic(5)):
        doc = formats.format_group(G)
        G2 = formats.parse_group(doc)
        assert formats.format_group(G2) == doc
        assert type(G2) is type(G)
        assert G2.table == G.table and G2.labels == G.labels and G2.name == G.name


def test_tensor_roundtrip_both_fields():
    data = v4_cocycles()
    tw = twist_from_1cocycle(data[1])
    doc = formats.format_tensor(tw.J)
    J2 = formats.parse_tensor(doc)
    assert formats.format_tensor(J2) == doc
    assert J2.coeffs == tw.J.coeffs and J2.rank == 2

    it = identity_twist(make_cyclic(4), PrimeField(5, 4))
    doc = formats.format_tensor(it.J)
    J3 = formats.parse_tensor(doc)
    assert formats.format_tensor(J3) == doc
    assert J3.field.characteristic == 5


def test_tensor_group_override_must_match():
    data = v4_cocycles()
    tw = twist_from_1cocycle(data[1])
    doc = formats.format_tensor(tw.J)
    same = formats.parse_tensor(doc, group=tw.group)
    assert same.group is tw.group
    with pytest.raises(FormatError, match="does not match the supplied"):
        formats.parse_tensor(doc, group=abelian_group((2, 2)))


def test_cocycle_document_roundtrip():
    data = v4_cocycles()
    action = data[0].action
    doc = formats.format_cocycles(action, [d.pi for d in data])
    back = formats.parse_cocycles(doc)
    assert [b.pi for b in back] == [d.pi for d in data]
    assert formats.format_cocycles(back[0].action, [b.pi for b in back]) == doc


def test_action_document_roundtrip():
    G = abelian_group((2, 2))
    A = make_cyclic(4)
    inv = (0, 3, 2, 1)
    ident = (0, 1, 2, 3)
    action = action_from_generator_images(G, A, G.basis(), [inv, ident])
    doc = formats.format_action(action)
    back = formats.parse_action(doc)
    assert back.perms == action.perms
    assert formats.format_action(back) == doc


def test_rep_document_roundtrip():
    rep = heisenberg_rep(v4_cocycles()[1])
    doc = formats.format_rep(rep)
    rep2 = formats.parse_rep(doc)
    assert formats.format_rep(rep2) == doc
    assert rep2.matrices == rep.matrices and rep2.dim == rep.dim


def test_algebra_document_roundtrip():
    tw = twist_from_1cocycle(v4_cocycles()[1])
    alg = dual_movshev(tw).algebra
    doc = formats.format_algebra(alg)
    alg2 = formats.parse_algebra(doc)
    assert formats.format_algebra(alg2) == doc
    assert alg2.m == alg.m and alg2.unit == alg.unit


def test_report_roundtrip():
    from twistlab.twists import check_twist
    tw = twist_from_1cocycle(v4_cocycles()[1])
    report = check_twist(tw.J)
    doc = formats.format_report(report, preamble=[("command", "verify-twist")])
    title, checks, status = formats.parse_report(doc)
    assert title == report.title and status is True
    assert [(n, ok) for n, ok, _ in checks] == \
        [(n, ok) for n, ok, _ in report.checks]


def test_table_roundtrip():
    doc = formats.format_table("classify", [("order", 4)],
                               ["name", "u"], [["C4", "0"], ["C2xC2", "0,1"]],
                               status=True)
    preamble, columns, rows, status = formats.parse_table(doc, "classify")
    assert preamble["order"] == "4"
    assert columns == ["name", "u"]
    assert rows == [["C4", "0"], ["C2xC2", "0,1"]]
    assert status is True


# ---------------------------------------------------------------------------
# parse diagnostics

def test_parse_errors_carry_line_numbers():
    tw = twist_from_1cocycle(v4_cocycles()[1])
    lines = formats.format_tensor(tw.J).splitlines()
    entry_at = next(i for i, l in enumerate(lines) if l.startswith("entry"))

    bad = list(lines)
    bad[entry_at] = "entry 0 0 : not-a-scalar"
    with pytest.raises(FormatError, match=rf"line {entry_at + 1}: bad scalar"):
        formats.parse_tensor("\n".join(bad))

    bad = list(lines)
    bad[entry_at] = "entry 99 0 : Q(z_1) 1"
    with pytest.raises(FormatError, match="out of range"):
        formats.parse_tensor("\n".join(bad))

    bad = list(lines)
    bad.append(lines[entry_at])
    with pytest.raises(FormatError, match="duplicate entry"):
        formats.parse_tensor("\n".join(bad))

    with pytest.raises(FormatError, match="expected a tensor document"):
        formats.parse_tensor(formats.format_group(make_cyclic(2)))

    with pytest.raises(FormatError, match="missing a field line"):
        formats.parse_tensor("twistlab tensor v1\nrank 2\n")

    with pytest.raises(FormatError, match="empty document"):
        formats.parse_group("   \n# only a comment\n")


def test_invalid_cocycle_document_names_the_line():
    data = v4_cocycles()
    action = data[0].action
    # a bijection that sends the identity away from 0 cannot be a cocycle
    doc = formats.format_cocycles(action, [(1, 0, 2, 3)])
    with pytest.raises(FormatError, match="pi 0 is invalid"):
        formats.parse_cocycles(doc)


def doc_of(kind, *lines):
    return "\n".join([f"twistlab {kind} v1", *lines]) + "\n"


def edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def without(text, prefix):
    return "".join(l for l in text.splitlines(True) if not l.startswith(prefix))


C2_BLOCK = ("name C2", "order 2", "factors 2", "label 0 0", "label 1 1",
            "row 0 0 1", "row 1 1 0")
GROUP_DOC = doc_of("group", *C2_BLOCK)
TENSOR_DOC = doc_of("tensor", "field cyclotomic", "rank 2",
                    *("group " + l for l in C2_BLOCK), "entry 0 0 : Q(z_1) 1")
ACTION_DOC = doc_of("action", "G factors 2", "A factors 2", "perm 0 : 0 1",
                    "perm 1 : 0 1")
COCYCLE_DOC = doc_of("cocycle", "G factors 2", "A factors 2", "perm 0 : 0 1",
                     "perm 1 : 0 1", "pi 0 : 0 1")
REP_DOC = doc_of("rep", "field cyclotomic", "dim 1",
                 *("group " + l for l in C2_BLOCK),
                 "mat 0 0 0 : Q(z_1) 1", "mat 1 0 0 : Q(z_1) 1")
ALGEBRA_DOC = doc_of("algebra", "field cyclotomic", "dim 2", "label 0 Y_0",
                     "label 1 Y_1", "unit 0 : Q(z_1) 1", "unit 1 : Q(z_1) 1",
                     "sc 0 0 0 : Q(z_1) 1", "sc 1 1 1 : Q(z_1) 1")
REPORT_DOC = doc_of("report", "command x", "title t", "check pass a",
                    "check fail b", "witness w", "status fail", "summary",
                    "  t")
TABLE_DOC = doc_of("classify", "order 4", "columns name | u",
                   "row 0 : C4 | 0", "row 1 : C2xC2 | 0,1", "status pass",
                   "summary", "  name u")


def parse_classify(text):
    return formats.parse_table(text, "classify")


# (parser, malformed document, exact FormatError text, line number)
PARSE_FAULTS = {
    "group-bad-header": (
        formats.parse_group, edit(GROUP_DOC, " v1", " v2"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlab group v2'", 1),
    "group-wrong-kind": (
        formats.parse_group, TENSOR_DOC,
        "line 1: expected a group document, found 'tensor'", 1),
    "group-empty": (
        formats.parse_group, "  \n# only a comment\n", "empty document", None),
    "group-unexpected-key": (
        formats.parse_group, edit(GROUP_DOC, "name", "colour"),
        "line 2: unexpected key 'colour' in group block", 2),
    "group-missing-order": (
        formats.parse_group, edit(GROUP_DOC, "order 2\n", ""),
        "group block is missing an order line", None),
    "group-bad-integer": (
        formats.parse_group, edit(GROUP_DOC, "order 2", "order two"),
        "line 3: order must be an integer, found 'two'", 3),
    "group-row-out-of-range": (
        formats.parse_group, edit(GROUP_DOC, "row 1", "row 5"),
        "line 8: table row 5 does not match the declared factors", 8),
    "group-row-index-out-of-range": (
        formats.parse_group, without(GROUP_DOC, "factors") + "row 7 1 1\n",
        "line 8: row index 7 is outside 0..1", 8),
    "group-duplicate-row": (
        formats.parse_group, without(GROUP_DOC, "factors") + "row 1 1 0\n",
        "line 8: duplicate row 1", 8),
    "group-duplicate-label": (
        formats.parse_group, GROUP_DOC + "label 1 b\n",
        "line 9: duplicate label 1", 9),
    "group-label-out-of-range": (
        formats.parse_group, without(GROUP_DOC, "factors") + "label 2 b\n",
        "line 8: label index 2 is outside 0..1", 8),
    "group-label-against-factors": (
        formats.parse_group, edit(GROUP_DOC, "label 1 1", "label 1 b"),
        "line 6: label 1 does not match the declared factors", 6),
    "group-bad-factors": (
        formats.parse_group, edit(GROUP_DOC, "factors 2", "factors -2"),
        "line 4: bad cyclic factors [-2]: cyclic factors must be positive", 4),
    "group-factors-above-cap": (
        formats.parse_group,
        edit(GROUP_DOC, "factors 2", f"factors {MAX_ABELIAN_ORDER + 1}"),
        f"line 4: bad cyclic factors [{MAX_ABELIAN_ORDER + 1}]: order "
        f"{MAX_ABELIAN_ORDER + 1} is above {MAX_ABELIAN_ORDER}", 4),
    "tensor-bad-header": (
        formats.parse_tensor, edit(TENSOR_DOC, "tensor v1", "tensor"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlab tensor'", 1),
    "tensor-wrong-kind": (
        formats.parse_tensor, GROUP_DOC,
        "line 1: expected a tensor document, found 'group'", 1),
    "tensor-unexpected-key": (
        formats.parse_tensor, edit(TENSOR_DOC, "rank 2", "rank 2\nweight 3"),
        "line 4: unexpected key 'weight' in tensor document", 4),
    "tensor-group-unexpected-key": (
        formats.parse_tensor, edit(TENSOR_DOC, "group name", "group colour"),
        "line 4: unexpected key 'colour' in group block", 4),
    "tensor-missing-field": (
        formats.parse_tensor, without(TENSOR_DOC, "field"),
        "tensor document is missing a field line", None),
    "tensor-missing-rank": (
        formats.parse_tensor, without(TENSOR_DOC, "rank"),
        "tensor document is missing a positive rank line", None),
    "tensor-missing-group": (
        formats.parse_tensor, without(TENSOR_DOC, "group"),
        "tensor document carries no group block and no group was supplied",
        None),
    "tensor-group-missing-order": (
        formats.parse_tensor, without(TENSOR_DOC, "group order"),
        "group block is missing an order line", None),
    "tensor-index-out-of-range": (
        formats.parse_tensor, edit(TENSOR_DOC, "entry 0 0", "entry 0 5"),
        "line 11: entry index 5 is out of range for order 2", 11),
    "tensor-wrong-arity": (
        formats.parse_tensor, edit(TENSOR_DOC, "entry 0 0", "entry 0"),
        "line 11: entry has 1 indices, expected rank 2", 11),
    "tensor-no-colon": (
        formats.parse_tensor, edit(TENSOR_DOC, " : ", " "),
        "line 11: entry line needs ' : ' between indices and value", 11),
    "tensor-duplicate-entry": (
        formats.parse_tensor, TENSOR_DOC + "entry 0 0 : Q(z_1) 2\n",
        "line 12: duplicate entry at (0, 0)", 12),
    "tensor-bad-scalar": (
        formats.parse_tensor, edit(TENSOR_DOC, "Q(z_1) 1", "Q(z_2003) 1"),
        "line 11: bad scalar 'Q(z_2003) 1': conductor 2003 is outside "
        "1..1024", 11),
    "tensor-bad-field": (
        formats.parse_tensor, edit(TENSOR_DOC, "cyclotomic", "real"),
        "line 2: bad field spec 'real': cannot parse field spec 'real'", 2),
    "tensor-pinned-conductor": (
        formats.parse_tensor, edit(TENSOR_DOC, "cyclotomic", "cyclotomic:8"),
        "line 2: bad field spec 'cyclotomic:8': cannot parse field spec "
        "'cyclotomic:8'", 2),
    "tensor-scalar-off-field": (
        formats.parse_tensor, edit(TENSOR_DOC, "Q(z_1) 1", "3 mod 5"),
        "line 11: scalar '3 mod 5' is not a cyclotomic value", 11),
    "action-bad-header": (
        formats.parse_action, edit(ACTION_DOC, "twistlab", "twistlib"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlib action v1'", 1),
    "action-wrong-kind": (
        formats.parse_action, COCYCLE_DOC,
        "line 1: expected a action document, found 'cocycle'", 1),
    "action-unexpected-key": (
        formats.parse_action, edit(ACTION_DOC, "A factors", "B factors"),
        "line 3: unexpected key 'B' in action document", 3),
    "action-unexpected-subkey": (
        formats.parse_action, edit(ACTION_DOC, "G factors", "G order"),
        "line 2: unexpected key 'G order'", 2),
    "action-missing-factors": (
        formats.parse_action, without(ACTION_DOC, "A factors"),
        "action document needs 'G factors' and 'A factors'", None),
    "action-missing-perm": (
        formats.parse_action, without(ACTION_DOC, "perm 1"),
        "action document is missing perm 1", None),
    "action-perm-out-of-range": (
        formats.parse_action, edit(ACTION_DOC, "perm 1 : 0 1", "perm 1 : 0 2"),
        "line 5: perm 1 is not a permutation of 0..1", 5),
    "action-bad-factors": (
        formats.parse_action, edit(ACTION_DOC, "G factors 2", "G factors 0"),
        "line 2: bad cyclic factors [0]: cyclic factors must be positive", 2),
    "action-factors-above-cap": (
        formats.parse_action,
        edit(ACTION_DOC, "A factors 2", f"A factors 2 {MAX_ABELIAN_ORDER}"),
        f"line 3: bad cyclic factors [2, {MAX_ABELIAN_ORDER}]: order "
        f"{2 * MAX_ABELIAN_ORDER} is above {MAX_ABELIAN_ORDER}", 3),
    "action-duplicate-perm": (
        formats.parse_action, ACTION_DOC + "perm 1 : 1 0\n",
        "line 6: duplicate perm 1", 6),
    "action-perm-index-out-of-range": (
        formats.parse_action, ACTION_DOC + "perm 2 : 0 1\n",
        "line 6: perm index 2 is outside 0..1", 6),
    "cocycle-bad-header": (
        formats.parse_cocycles, edit(COCYCLE_DOC, "v1", "v1 extra"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlab cocycle v1 extra'", 1),
    "cocycle-wrong-kind": (
        formats.parse_cocycles, ACTION_DOC,
        "line 1: expected a cocycle document, found 'action'", 1),
    "cocycle-unexpected-key": (
        formats.parse_cocycles, edit(COCYCLE_DOC, "pi 0", "sigma 0"),
        "line 6: unexpected key 'sigma' in action document", 6),
    "cocycle-missing-pi": (
        formats.parse_cocycles, without(COCYCLE_DOC, "pi"),
        "cocycle document holds no pi lines", None),
    "cocycle-pi-count": (
        formats.parse_cocycles, edit(COCYCLE_DOC, "pi 0", "pi 1"),
        "line 6: pi indices must count up from 0, found 1", 6),
    "cocycle-pi-out-of-range": (
        formats.parse_cocycles, edit(COCYCLE_DOC, "pi 0 : 0 1", "pi 0 : 0 1 1"),
        "line 6: pi 0 has 3 values, expected 2", 6),
    "cocycle-pi-invalid": (
        formats.parse_cocycles, edit(COCYCLE_DOC, "pi 0 : 0 1", "pi 0 : 1 0"),
        "line 6: pi 0 is invalid: pi violates the 1-cocycle condition", 6),
    "rep-bad-header": (
        formats.parse_rep, edit(REP_DOC, "rep v1", "rep v1.0"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlab rep v1.0'", 1),
    "rep-wrong-kind": (
        formats.parse_rep, ALGEBRA_DOC,
        "line 1: expected a rep document, found 'algebra'", 1),
    "rep-unexpected-key": (
        formats.parse_rep, edit(REP_DOC, "dim 1", "dim 1\nrank 2"),
        "line 4: unexpected key 'rank' in rep document", 4),
    "rep-missing-dim": (
        formats.parse_rep, without(REP_DOC, "dim"),
        "rep document is missing a positive dim line", None),
    "rep-missing-group": (
        formats.parse_rep, without(REP_DOC, "group"),
        "rep document is missing its group block", None),
    "rep-index-out-of-range": (
        formats.parse_rep, edit(REP_DOC, "mat 1 0 0", "mat 1 0 1"),
        "line 12: mat index (1, 0, 1) is out of range", 12),
    "rep-duplicate-mat": (
        formats.parse_rep, REP_DOC + "mat 1 0 0 : Q(z_1) -1\n",
        "line 13: duplicate mat entry at (1, 0, 0)", 13),
    "rep-bad-scalar": (
        formats.parse_rep, edit(REP_DOC, "Q(z_1) 1\nmat", "Q(z_4) 1*z^9\nmat"),
        "line 11: bad scalar 'Q(z_4) 1*z^9': exponent 9 is outside 0..1 in "
        "Q(z_4)", 11),
    "algebra-bad-header": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "v1", "v1 v1"),
        "line 1: expected a 'twistlab <kind> v1' header, found "
        "'twistlab algebra v1 v1'", 1),
    "algebra-wrong-kind": (
        formats.parse_algebra, REP_DOC,
        "line 1: expected a algebra document, found 'rep'", 1),
    "algebra-unexpected-key": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "label 0", "lable 0"),
        "line 4: unexpected key 'lable' in algebra document", 4),
    "algebra-missing-dim": (
        formats.parse_algebra, without(ALGEBRA_DOC, "dim"),
        "algebra document is missing a positive dim line", None),
    "algebra-missing-label": (
        formats.parse_algebra, without(ALGEBRA_DOC, "label 1"),
        "algebra document is missing label 1", None),
    "algebra-duplicate-label": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "label 1 Y_1", "label 0 Y_1"),
        "line 5: duplicate label 0", 5),
    "algebra-duplicate-unit": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "unit 1", "unit 0"),
        "line 7: duplicate unit 0", 7),
    "algebra-sc-out-of-range": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "sc 1 1 1", "sc 1 1 2"),
        "line 9: sc indices [1, 1, 2] are out of range", 9),
    "algebra-unit-out-of-range": (
        formats.parse_algebra, edit(ALGEBRA_DOC, "unit 1", "unit 2"),
        "line 7: unit index 2 is out of range", 7),
    "algebra-duplicate-sc": (
        formats.parse_algebra, ALGEBRA_DOC + "sc 0 0 0 : Q(z_1) 2\n",
        "line 10: duplicate sc entry at (0, 0, 0)", 10),
    "algebra-bad-scalar": (
        formats.parse_algebra,
        edit(ALGEBRA_DOC, "unit 1 : Q(z_1) 1", "unit 1 : Q(z_1) (1/0)"),
        "line 7: bad scalar 'Q(z_1) (1/0)': zero denominator in '1/0'", 7),
    "report-bad-header": (
        formats.parse_report, edit(REPORT_DOC, "v1", "v2"),
        "line 1: expected a report document header, found "
        "'twistlab report v2'", 1),
    "report-wrong-kind": (
        formats.parse_report, TABLE_DOC,
        "line 1: expected a report document header, found "
        "'twistlab classify v1'", 1),
    "report-empty": (
        formats.parse_report, "\n\n", "empty document", None),
    "report-missing-status": (
        formats.parse_report, without(REPORT_DOC, "status"),
        "report document is missing a status line", None),
    "report-bad-verdict": (
        formats.parse_report, edit(REPORT_DOC, "check pass", "check maybe"),
        "line 4: check verdict must be pass or fail, found 'maybe'", 4),
    "report-bad-status": (
        formats.parse_report, edit(REPORT_DOC, "status fail", "status ok"),
        "line 7: status must be pass or fail, found 'ok'", 7),
    "report-witness-first": (
        formats.parse_report, edit(REPORT_DOC, "title t", "witness early"),
        "line 3: witness line before any check", 3),
    "table-bad-header": (
        parse_classify, edit(TABLE_DOC, "v1", "v1 v1"),
        "line 1: expected a classify document header, found "
        "'twistlab classify v1 v1'", 1),
    "table-wrong-kind": (
        parse_classify, REPORT_DOC,
        "line 1: expected a classify document header, found "
        "'twistlab report v1'", 1),
    "table-missing-columns": (
        parse_classify, without(TABLE_DOC, "columns"),
        "classify document is missing a columns line", None),
    "table-row-count": (
        parse_classify, edit(TABLE_DOC, "row 1", "row 2"),
        "line 5: row indices must count up from 0, found 2", 5),
    "table-row-index": (
        parse_classify, edit(TABLE_DOC, "row 1", "row one"),
        "line 5: row index must be an integer, found 'one'", 5),
    "table-row-cells": (
        parse_classify, edit(TABLE_DOC, "C2xC2 | 0,1", "C2xC2"),
        "row 1 has 1 cells for 2 columns", None),
}


@pytest.mark.parametrize("case", PARSE_FAULTS)
def test_parse_fault_diagnostics(case):
    parse, text, message, line = PARSE_FAULTS[case]
    with pytest.raises(FormatError) as info:
        parse(text)
    assert (str(info.value), info.value.line) == (message, line)


def test_listing_summary_is_free_text():
    """Nothing after a report's or table's summary line is parsed."""
    junk = "check maybe x\nrow 9 : a\nstatus unknown\n"
    title, checks, status = formats.parse_report(REPORT_DOC + junk)
    assert (title, checks, status) == (
        "t", [("a", True, ""), ("b", False, "w")], False)
    assert formats.parse_table(TABLE_DOC + junk, "classify") == (
        {"order": "4"}, ["name", "u"], [["C4", "0"], ["C2xC2", "0,1"]], True)


def test_report_witness_belongs_to_the_check_above():
    doc = edit(REPORT_DOC, "check pass a", "check fail a\nwitness first")
    assert formats.parse_report(doc)[1] == [
        ("a", False, "first"), ("b", False, "w")]


@pytest.mark.parametrize("parse, text, message", [
    (formats.parse_tensor, edit(TENSOR_DOC, "group name C2", "group"),
     "line 4: unexpected key '' in group block"),
    (formats.parse_rep, edit(REP_DOC, "group name C2", "group"),
     "line 4: unexpected key '' in group block"),
    (formats.parse_cocycles, edit(COCYCLE_DOC, "G factors 2", "G"),
     "line 2: unexpected key 'G '"),
    (formats.parse_report, edit(REPORT_DOC, "check pass a", "check"),
     "line 4: check verdict must be pass or fail, found ''"),
], ids=["tensor", "rep", "cocycle", "report"])
def test_bare_key_is_a_parse_error(parse, text, message):
    """A key with nothing after it is a FormatError, not an IndexError."""
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# command line flows

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cocycle_to_twist_flow(tmp_path, capsys):
    dat = tmp_path / "e1.dat"
    code, out, err = run_cli(capsys, "find-1cocycles", "--G", "2,2",
                             "--A", "2,2", "--out", str(dat))
    assert code == 0
    assert "6 found" in out
    assert dat.read_text().startswith("twistlab cocycle v1\n")

    twist_file = tmp_path / "e1_twist.txt"
    code, out, err = run_cli(capsys, "build-twist", "--from-1cocycle",
                             str(dat), "--index", "1", "--out",
                             str(twist_file))
    assert code == 0
    assert "status pass" in out

    code, out, err = run_cli(capsys, "verify-twist", "--twist",
                             str(twist_file))
    assert code == 0
    assert "check pass cocycle identity" in out

    code, out, err = run_cli(capsys, "verify-eq2345", str(dat))
    assert code == 0
    assert "status pass" in out


def test_r_matrix_drinfeld_minimal_movshev(tmp_path, capsys):
    dat = tmp_path / "e1.dat"
    twist_file = tmp_path / "tw.txt"
    run_cli(capsys, "find-1cocycles", "--G", "2,2", "--A", "2,2",
            "--out", str(dat))
    run_cli(capsys, "build-twist", "--from-1cocycle", str(dat), "--index",
            "1", "--out", str(twist_file))

    r_file = tmp_path / "r.txt"
    code, out, err = run_cli(capsys, "r-matrix", "--twist", str(twist_file),
                             "--out", str(r_file))
    assert code == 0
    r = formats.parse_tensor(r_file.read_text())
    assert r.rank == 2

    u_file = tmp_path / "u.txt"
    code, out, err = run_cli(capsys, "drinfeld", "--twist", str(twist_file),
                             "--out", str(u_file))
    assert code == 0
    u = formats.parse_tensor(u_file.read_text())
    e = u.group.identity
    assert list(u.coeffs) == [(e,)]

    code, out, err = run_cli(capsys, "minimal", "--twist", str(twist_file))
    assert code == 0 and "status pass" in out

    alg_file = tmp_path / "alg.txt"
    code, out, err = run_cli(capsys, "movshev", "--twist", str(twist_file),
                             "--out", str(alg_file))
    assert code == 0
    assert "check pass center dimension 1" in out
    assert "check pass regular trace at" in out
    assert "check pass at least two grouplike elements" in out
    formats.parse_algebra(alg_file.read_text())

    code, out, err = run_cli(capsys, "movshev", "--twist", str(twist_file),
                             "--certify-simple", "--out", str(alg_file))
    assert code == 0
    assert "regular trace" not in out and "grouplike" not in out


def test_drinfeld_with_r_u_factor(tmp_path, capsys):
    """J = 1 (x) 1 with R_u folded in gives back u itself."""
    G = make_cyclic(2)
    it = identity_twist(G, CyclotomicField())
    twist_file = tmp_path / "id2.txt"
    twist_file.write_text(formats.format_tensor(it.J))
    u_file = tmp_path / "u.txt"
    code, out, err = run_cli(capsys, "drinfeld", "--twist", str(twist_file),
                             "--u", "1", "--out", str(u_file))
    assert code == 0
    u = formats.parse_tensor(u_file.read_text())
    assert list(u.coeffs) == [(1,)]
    assert "check pass regular trace matches" in out


def test_trivialize_symmetric_and_refusal(tmp_path, capsys):
    G = abelian_group((2, 2))
    field = CyclotomicField()
    x = TensorElement(G, 1, field, {(0,): field.from_int(1),
                                    (1,): field.from_int(2),
                                    (2,): field.from_int(-1),
                                    (3,): field.from_int(3)})
    tw = gauge_transform(identity_twist(G, field), x)
    assert tw.is_symmetric()
    twist_file = tmp_path / "sym.txt"
    twist_file.write_text(formats.format_tensor(tw.J))
    x_file = tmp_path / "x.txt"
    code, out, err = run_cli(capsys, "trivialize", "--twist", str(twist_file),
                             "--out", str(x_file))
    assert code == 0
    assert "check pass gauge of the trivial twist" in out
    x2 = formats.parse_tensor(x_file.read_text())
    assert x2.rank == 1
    regauged = gauge_transform(identity_twist(x2.group, x2.field), x2)
    assert regauged.J.coeffs == tw.J.coeffs

    skew = twist_from_1cocycle(v4_cocycles()[1])
    skew_file = tmp_path / "skew.txt"
    skew_file.write_text(formats.format_tensor(skew.J))
    code, out, err = run_cli(capsys, "trivialize", "--twist", str(skew_file))
    assert code == 1
    assert "not symmetric" in err


def test_build_twist_from_rep_and_determinism(tmp_path, capsys):
    rep = heisenberg_rep(v4_cocycles()[1])
    rep_file = tmp_path / "rep.txt"
    rep_file.write_text(formats.format_rep(rep))
    outs = []
    for name in ("a.txt", "b.txt"):
        out_file = tmp_path / name
        code, out, err = run_cli(capsys, "build-twist", "--from-rep",
                                 str(rep_file), "--seed", "5", "--out",
                                 str(out_file))
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]
    verify_twist(formats.parse_tensor(outs[0].decode()))


def test_build_twist_flag_validation(tmp_path, capsys):
    code, out, err = run_cli(capsys, "build-twist")
    assert code == 2
    assert "exactly one of" in err


def test_find_1cocycles_with_action_file(tmp_path, capsys):
    G = abelian_group((2, 2))
    A = make_cyclic(4)
    action = action_from_generator_images(
        G, A, G.basis(), [(0, 3, 2, 1), (0, 1, 2, 3)])
    action_file = tmp_path / "act.txt"
    action_file.write_text(formats.format_action(action))
    dat = tmp_path / "found.dat"
    code, out, err = run_cli(capsys, "find-1cocycles", "--G", "2,2",
                             "--A", "4", "--action", str(action_file),
                             "--out", str(dat))
    assert code == 0
    assert "2 found" in out
    assert len(formats.parse_cocycles(dat.read_text())) == 2

    code, out, err = run_cli(capsys, "find-1cocycles", "--G", "4",
                             "--A", "4", "--action", str(action_file))
    assert code == 2
    assert "do not match" in err

    action_file.write_text(formats.format_action(action).replace(
        "G factors 2 2", "G factors 0"))
    code, out, err = run_cli(capsys, "find-1cocycles", "--G", "2,2",
                             "--A", "4", "--action", str(action_file))
    assert code == 2
    assert err == ("parse error: line 2: bad cyclic factors [0]: cyclic "
                   "factors must be positive\n")


def test_exit_codes_and_diagnostics(tmp_path, capsys):
    tw = twist_from_1cocycle(v4_cocycles()[1])
    doc = formats.format_tensor(tw.J)

    tampered = tmp_path / "bad.txt"
    lines = doc.splitlines()
    entry_at = next(i for i, l in enumerate(lines) if l.startswith("entry"))
    key, val = lines[entry_at].split(" : ")
    lines[entry_at] = f"{key} : Q(z_1) (1/2)"
    tampered.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify-twist", "--twist",
                             str(tampered))
    assert code == 1
    assert "check fail" in out and "witness" in out and "status fail" in out

    mangled = tmp_path / "mangled.txt"
    mangled.write_text(doc.replace("rank 2\n", "", 1))
    code, out, err = run_cli(capsys, "verify-twist", "--twist", str(mangled))
    assert code == 2
    assert "parse error" in err and "rank" in err

    missing = tmp_path / "nope.txt"
    code, out, err = run_cli(capsys, "verify-twist", "--twist", str(missing))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("group, values", [
    pytest.param(None, values, id=", ".join(values)) for values in [
        ("Q(z_1) (1/0)",), ("Q(z_4) 1*z^7",), ("5 mod 0",),
        ("Q(z_4) 1*z^-1",), ("Q(z_4) 1*z + 2*z",), ("Q(z_2003) 1",),
        # each parses, but together they need conductor 1536
        ("Q(z_512) 1*z", "Q(z_3) 1*z"),
    ]] + [
    # parses alone, but inverting on the C3 support also needs zeta_3
    pytest.param(make_cyclic(3), ("Q(z_1) 1", "Q(z_512) 1*z"),
                 id="C3: Q(z_1) 1, Q(z_512) 1*z"),
])
def test_hostile_scalar_is_a_parse_error(tmp_path, capsys, group, values):
    """The values replace the first entries of a twist on C2xC2, or of
    1 (x) 1 + g (x) 1 on `group`; the last one is refused."""
    if group is None:
        J = twist_from_1cocycle(v4_cocycles()[1]).J
    else:
        Q = CyclotomicField()
        J = TensorElement(group, 2, Q, {(0, 0): Q.from_int(1),
                                        (1, 0): Q.from_int(1)})
    lines = formats.format_tensor(J).splitlines()
    entries = [i for i, l in enumerate(lines) if l.startswith("entry")]
    for entry_at, value in zip(entries, values):
        key, _ = lines[entry_at].split(" : ")
        lines[entry_at] = f"{key} : {value}"
    doc = tmp_path / "hostile.txt"
    doc.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "verify-twist", "--twist", str(doc))
    assert code == 2
    assert f"parse error: line {entry_at + 1}: bad scalar" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("classify", "--order", "8", "--field", "fp:x"), "--field"),
    (("classify", "--order", "8", "--field", "cyclotomic:x"), "--field"),
    (("classify", "--order", "8", "--field", "cyclotomic:8"), "--field"),
    (("classify", "--order", "8", "--field", "foo"), "--field"),
    (("classify", "--order", "8", "--field", "fp:12"), "--field"),
    (("find-1cocycles", "--G", "0", "--A", "2"), "--G"),
    (("find-1cocycles", "--G", "2", "--A", str(MAX_ABELIAN_ORDER + 1)),
     "--A"),
    (("classify", "--order", "40"), "--order"),
    (("catalog", "list", "--max-order", "40"), "--max-order"),
    (("catalog", "list", "--max-order", "0"), "--max-order"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_bad_flag_value_is_a_parse_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:") and flag in err
    assert "Traceback" not in err


def test_classify_rejects_order_below_one(capsys):
    code, out, err = run_cli(capsys, "classify", "--order", "0")
    assert code == 2
    assert "parse error" in err and "--order" in err
    assert "Traceback" not in err


def test_classify_small_orders(tmp_path, capsys):
    out_file = tmp_path / "cls.txt"
    code, out, err = run_cli(capsys, "classify", "--order", "2", "--out",
                             str(out_file))
    assert code == 0
    preamble, columns, rows, status = formats.parse_table(
        out_file.read_text(), "classify")
    assert status is True
    assert preamble["order"] == "2"
    assert len(rows) == 2
    assert columns[0] == "group" and "minimal" in columns
    assert [r[0] for r in rows] == ["C2", "C2"]
    # the u = e datum is not minimal, the u = g one is
    minimal_col = columns.index("minimal")
    assert sorted(r[minimal_col] for r in rows) == ["no", "yes"]


def test_classify_deterministic_bytes(tmp_path, capsys):
    outs = []
    for name in ("a.txt", "b.txt"):
        out_file = tmp_path / name
        code, _, _ = run_cli(capsys, "classify", "--order", "4", "--seed",
                             "0", "--out", str(out_file))
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


def test_classify_prime_field(capsys):
    code, out, err = run_cli(capsys, "classify", "--order", "2", "--field",
                             "fp:17")
    assert code == 0
    assert "status pass" in out


def test_catalog_list(capsys):
    code, out, err = run_cli(capsys, "catalog", "list", "--max-order", "8")
    assert code == 0
    preamble, columns, rows, status = formats.parse_table(out, "groups")
    assert [r[1] for r in rows] == [
        "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "D3", "C7", "C8",
        "D4", "Q8", "C2xC4", "C2xC2xC2"]


# ---------------------------------------------------------------------------
# golden bytes

def gauge_twist(G, s, t):
    """Delta(x) (x^-1 (x) x^-1) for x = 4e + s + 2t with counit 1."""
    Q = CyclotomicField()
    x = TensorElement(G, 1, Q, {(G.identity,): Q.from_int(4),
                                (s,): Q.from_int(1), (t,): Q.from_int(2)})
    x = x.scale(hopf_counit(x).inverse())
    x_inv = algebra_invert(x)
    return hopf_coproduct(x) * x_inv.outer(x_inv)


GOLDEN_COMMANDS = [
    ("find-1cocycles", "--G", "3", "--A", "3", "--out", "cocycles.txt"),
    ("build-twist", "--from-1cocycle", "cocycles.txt", "--index", "1",
     "--out", "twist.txt"),
    ("r-matrix", "--twist", "twist.txt", "--out", "r.txt"),
    ("drinfeld", "--twist", "twist.txt", "--out", "u.txt"),
    ("movshev", "--twist", "twist.txt", "--out", "dual.txt"),
    ("trivialize", "--twist", "c3xc3-gauge.txt", "--out", "trivializer.txt"),
    ("r-matrix", "--twist", "s3-gauge.txt", "--out", "s3-r.txt"),
    ("r-matrix", "--twist", "d4-gauge.txt", "--out", "d4-r.txt"),
    ("classify", "--order", "8", "--out", "classify.txt"),
]

# sha256 of every document and report of GOLDEN_COMMANDS, recorded before
# the character transforms were shared (algebra.AbelianCharacters).  The
# gauge twists are inputs, and inverting their gauge elements takes both
# inversion routes: the central split, over Z = S for the abelian C3xC3
# and over the proper center of D4, and Krylov iteration for S3.  A change
# that alters these bytes on purpose updates this table and says why.
GOLDEN = {
    "c3xc3-gauge.txt":
        "c04acce9f5d9a88663f60d200fd1d43b43787031af003bafc2f0ea47573854b4",
    "classify.txt":
        "15274d2134216672ed3a9cfb2facffa6d3fb72e420b593abfccc308cc93b862e",
    "classify.txt report":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cocycles.txt":
        "cdb7015684c0a15b78cca2ddccef3bcf76588d143bcac48ea6bf72c286a0722d",
    "cocycles.txt report":
        "b88d8fe495a381015a00ace1aa1bf2023d69296365a1ee748d87e1797eff105b",
    "d4-gauge.txt":
        "29055dd74641265f9a289d392797ab4edf5d205b39286d42a0a15688cb768e62",
    "d4-r.txt":
        "f6150182c3da61ab6e03a3e165af9af7de8b3de806fbcb8971088173187009d6",
    "d4-r.txt report":
        "da4c5076f178ef6650cf10fe1ce9686204f08fc8045e9c12b93d7248448ce6e3",
    "dual.txt":
        "bc16ca129effef64162354f12c872d0e0cf7cd38d6c02bdfd69f49d1de0a6119",
    "dual.txt report":
        "fc3890dd687c45065e06b26a09da7b66b2c606ed1fae34664b04ad4d71a570bf",
    "r.txt":
        "8111dcaf3f107f5cca55f1eb8a2265da21614e263cf415f259039db3d131e8f9",
    "r.txt report":
        "1b50f92199c39d9e1b842c5f0ddf7fea315b5e30490edf7ab46b508bd7bd32af",
    "s3-gauge.txt":
        "d1df0f88bbe923a8d5068a43e0b380e8a5a3268cf70c8ec562f2f38b9d6b6082",
    "s3-r.txt":
        "5d932026a4a744f34fec42500941e5c086083ac9b117dcd4648602ddf8af128f",
    "s3-r.txt report":
        "d1a2cc7290a260821f5df764ba0929c8c13897b55c1427d0e97b3aaec4848b8d",
    "trivializer.txt":
        "b529249b5d6fd58597d1419fb84884cbc0650339c56195f4ec2ae3b44bf0365e",
    "trivializer.txt report":
        "7c0d6a6261f6521f808d10670c01031261dd68c177842288b5167d167ca7c2de",
    "twist.txt":
        "2874910f246e2bb1a8ceeb5f653ff80420e0a8e0084df64c8c2795e88ad69223",
    "twist.txt report":
        "5ba8089b06a6c9e60e9ae496d1842fbc87a215cae4745deb56fb58d35940a2bc",
    "u.txt":
        "3863a464b8e47c4e6e08627e1703e2cd50149c59d62b74a686c65c252cb0255e",
    "u.txt report":
        "2ed950d972f313469846a05a2fca25295885268dd490dbb98e1e9f4a9aa6b4f3",
}


def test_golden_bytes(tmp_path, capsys):
    for name, J in (
            ("c3xc3-gauge.txt", gauge_twist(abelian_group((3, 3)), 1, 3)),
            ("s3-gauge.txt", gauge_twist(symmetric(3), 1, 3)),
            ("d4-gauge.txt", gauge_twist(dihedral(4), 1, 4))):
        (tmp_path / name).write_text(formats.format_tensor(J))
    got = {}
    for argv in GOLDEN_COMMANDS:
        code, out, err = run_cli(capsys, *(
            str(tmp_path / a) if a.endswith(".txt") else a for a in argv))
        assert code == 0, err
        got[f"{argv[-1]} report"] = hashlib.sha256(out.encode()).hexdigest()
    for path in tmp_path.iterdir():
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN
