"""Document formats and the command line surface."""

import hashlib

import pytest

from twistlab.scalars import CyclotomicField, PrimeField
from twistlab.groups import (abelian_group, action_from_generator_images,
                             dihedral, make_cyclic, symmetric, trivial_action)
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


@pytest.mark.parametrize("values", [
    ("Q(z_1) (1/0)",), ("Q(z_4) 1*z^7",), ("5 mod 0",), ("Q(z_4) 1*z^-1",),
    ("Q(z_4) 1*z + 2*z",), ("Q(z_2003) 1",),
    # each parses, but together they need conductor 1536
    ("Q(z_512) 1*z", "Q(z_3) 1*z"),
], ids=", ".join)
def test_hostile_scalar_is_a_parse_error(tmp_path, capsys, values):
    """The values replace the first entries; the last one is refused."""
    lines = formats.format_tensor(
        twist_from_1cocycle(v4_cocycles()[1]).J).splitlines()
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
# gauge twists are inputs, and inverting their gauge elements takes the
# Fourier (C3xC3), Krylov (S3) and central-split (D4) routes.  A change
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
