import hashlib
import json
from pathlib import Path

import pytest

from schemedouble.cli import main
from schemedouble.serialize import hopf_from_json, hopf_to_json
from schemedouble.fields import make_field
from schemedouble.groupschemes import constant_group, ga_kernel

from conftest import s3_cayley, S3_LABELS


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def z2_file(tmp_path):
    return write(tmp_path / "z2.json",
                 {"constant": {"elements": ["e", "s"],
                               "table": [[0, 1], [1, 0]], "name": "Z2"}})


@pytest.fixture
def s3_file(tmp_path):
    return write(tmp_path / "s3.json",
                 {"constant": {"elements": S3_LABELS,
                               "table": s3_cayley(), "name": "S3"}})


def test_build_and_verify_roundtrip(tmp_path, z2_file, capsys):
    out = tmp_path / "z2_built.json"
    assert main(["build", "--group", z2_file, "--field", "q",
                 "-o", str(out)]) == 0
    built = json.loads(out.read_text())
    assert built["order"] == 2
    # round-trip: the serialized group algebra re-parses to an equal object
    H = hopf_from_json(built["group_algebra"])
    assert hopf_to_json(H) == built["group_algebra"]
    hopf_file = tmp_path / "hopf.json"
    hopf_file.write_text(json.dumps(built["group_algebra"]))
    assert main(["verify", "--hopf", str(hopf_file)]) == 0


def test_verify_detects_corruption(tmp_path, z2_file):
    out = tmp_path / "z2_built.json"
    main(["build", "--group", z2_file, "--field", "q", "-o", str(out)])
    built = json.loads(out.read_text())
    doc = built["group_algebra"]
    doc["mult"][0]["value"] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--hopf", str(bad)]) == 1


@pytest.mark.parametrize("labels", [[0, 1], ["", "s"], [None, "s"]],
                         ids=["int", "empty", "null"])
def test_verify_fails_at_a_falsy_label(tmp_path, z2_file, labels):
    """A document whose labels are taken from its JSON as they are, with
    the antipode law broken only at the basis vector labelled 0, "" or
    null:
    `verify` reports that row failed with that label as witness and
    exits 1."""
    out = tmp_path / "z2_built.json"
    main(["build", "--group", z2_file, "--field", "q", "-o", str(out)])
    doc = json.loads(out.read_text())["group_algebra"]
    doc["labels"] = labels
    entry = next(e for e in doc["antipode"] if e["indices"] == [0, 0])
    entry["value"] = "2"
    bad, rep = tmp_path / "bad.json", tmp_path / "rep.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--hopf", str(bad), "-o", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert not report["ok"]
    assert [(c["name"], c["witness"]) for c in report["checks"] if not c["ok"]] == [
        ("antipode law", labels[0])]


def test_rational_with_zero_denominator_is_a_schema_error(tmp_path, z2_file, capsys):
    out = tmp_path / "z2_built.json"
    main(["build", "--group", z2_file, "--field", "q", "-o", str(out)])
    doc = json.loads(out.read_text())["group_algebra"]
    doc["mult"][0]["value"] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--hopf", str(bad)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_double_command(tmp_path, z2_file):
    out = tmp_path / "double.json"
    assert main(["double", "--group", z2_file, "--field", "q",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["double"]["dim"] == 4
    assert data["reports"]["hopf"]["ok"]
    assert data["factorizable"] is True


def test_enumerate_command_with_dot(tmp_path, s3_file):
    out = tmp_path / "nodes.json"
    dot = tmp_path / "lattice.dot"
    assert main(["enumerate", "--group", s3_file, "--field", "p7",
                 "-o", str(out), "--dot", str(dot)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 8
    text = dot.read_text()
    assert text.count("label=") == 8


def test_quotient_command(tmp_path):
    triple = {
        "group": {"ga_kernel": {"r": 2}},
        "K": {"frobenius_sub": {"r": 1}},
        "H": {"frobenius_sub": {"r": 1}},
        # B_1: d0 -> 1, d1 -> t over GF(2)
        "B": [{"indices": [0, 0], "value": "1"},
              {"indices": [1, 1], "value": "1"}],
    }
    f = write(tmp_path / "triple.json", triple)
    out = tmp_path / "qp.json"
    assert main(["quotient", "--triple", f, "--field", "p2",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 4
    assert data["theta_kernel_matches_ideal"] is True


def test_quotient_skip_theta_never_builds_the_double(tmp_path, monkeypatch):
    """quotient --skip-theta writes no theta keys and exits 0 with every
    binding of drinfeld_double raising: D(G) is built only when theta asks
    for it."""
    import importlib

    def no_double(G):
        raise AssertionError("D(G) built")

    for name in ("doubles", "quotients", "lattice", "cli"):
        module = importlib.import_module(f"schemedouble.{name}")
        if hasattr(module, "drinfeld_double"):
            monkeypatch.setattr(module, "drinfeld_double", no_double)
    triple = {"group": {"ga_kernel": {"r": 2}}, "K": {"frobenius_sub": {"r": 1}},
              "H": {"frobenius_sub": {"r": 1}},
              "B": [{"indices": [0, 0], "value": "1"}, {"indices": [1, 1], "value": "1"}]}
    f = write(tmp_path / "triple.json", triple)
    out = tmp_path / "qp.json"
    assert main(["quotient", "--triple", f, "--field", "p2", "--skip-theta",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 4
    assert not [key for key in data if key.startswith("theta")]


def test_blocks_command(tmp_path, s3_file):
    triple = {
        "group": {"constant": {"elements": S3_LABELS, "table": s3_cayley()}},
        "K": "full",
        "H": "trivial",
    }
    f = write(tmp_path / "triple.json", triple)
    out = tmp_path / "blocks.json"
    assert main(["blocks", "--triple", f, "--field", "p7",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert sorted(b["fp_dimension"] for b in data["blocks"]) == [6, 12, 18]


@pytest.mark.parametrize("p", [2, 3])
def test_appendix_diff_empty(p, capsys):
    assert main(["appendix", "--p", str(p)]) == 0
    assert "diff empty" in capsys.readouterr().out


def test_product_group_spec(tmp_path):
    spec = {"product": [{"constant": {"elements": ["e", "s"],
                                      "table": [[0, 1], [1, 0]]}},
                        {"ga_kernel": {"r": 1}}]}
    f = write(tmp_path / "prod.json", spec)
    out = tmp_path / "built.json"
    assert main(["build", "--group", f, "--field", "p2", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["order"] == 4
    assert data["order_connected"] == 2 and data["order_points"] == 2


def test_schema_error_exit_code(tmp_path):
    bad = write(tmp_path / "bad.json", {"nonsense": {}})
    assert main(["build", "--group", bad, "--field", "q"]) == 2
    missing_field = write(tmp_path / "g.json", {"ga_kernel": {}})
    assert main(["build", "--group", missing_field, "--field", "p2"]) == 2


@pytest.mark.parametrize("token", ["zz", "px", "p4", "p", "p2^x", "p4^2", "p2^2^2", "p2^9"])
def test_malformed_field_is_a_schema_error(tmp_path, z2_file, token, capsys):
    assert main(["build", "--group", z2_file, "--field", token]) == 2
    assert "schema error" in capsys.readouterr().err


def test_report_stable_under_key_reordering(tmp_path):
    a = {"constant": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]}}
    b = {"constant": {"table": [[0, 1], [1, 0]], "elements": ["e", "s"]}}
    fa = write(tmp_path / "a.json", a)
    fb = write(tmp_path / "b.json", b)
    oa, ob = tmp_path / "oa.json", tmp_path / "ob.json"
    main(["build", "--group", fa, "--field", "q", "-o", str(oa)])
    main(["build", "--group", fb, "--field", "q", "-o", str(ob)])
    assert oa.read_text() == ob.read_text()


def test_runs_are_deterministic(tmp_path, s3_file):
    out1, out2 = tmp_path / "n1.json", tmp_path / "n2.json"
    main(["enumerate", "--group", s3_file, "--field", "p7", "-o", str(out1)])
    main(["enumerate", "--group", s3_file, "--field", "p7", "-o", str(out2)])
    assert out1.read_text() == out2.read_text()


SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize("argv, digest", [
    (["double", "--group", "z2.json", "--field", "q"],
     "c3111568c0cdc73eabe545f7aaadaf67fd61527992d38139c7020a92e51f60d1"),
    (["double", "--group", "s3.json", "--field", "p7"],
     "920b3ecaf06134a9228922b6229849cc8f5e224c80bca793e19c77324f812401"),
    (["quotient", "--triple", "ga2_triple.json", "--field", "p3"],
     "53529c786aa4447bf211364998817fed68c4b106f0a6d6cfbd923d8b21958dfc"),
    (["quotient", "--triple", "ga2_triple.json", "--field", "p3", "--format", "text"],
     "85d005fab0ba894a99d5b4dad7690bc06f6bd423d98072f14db4ce15deda1265"),
    (["enumerate", "--format", "dot", "--group", "s3.json", "--field", "p7"],
     "4da5ca281b93165255043eecea49e47c8f0461042f7f22cdc71864c455f64d1f"),
    (["enumerate", "--group", "z2.json", "--field", "q"],
     "4b218594200a743c9f49762543502728375876a1030d14da88ccc50abd1e6d07"),
    (["build", "--group", "borel.json", "--field", "p3"],
     "28a20ce68226fc87bd2f4f7bd694b1c2925485a7e4d87bd776deec52e0c0ee3c"),
    (["enumerate", "--group", "s3.json", "--field", "p7"],
     "49bdb84cfff059450190a206bf3298241a2a9a9d0275e97d579c4b1be368ba51"),
    (["quotient", "--triple", "ga4_b1_triple.json", "--field", "p2"],
     "8d637b98b4203a7e4f5ee20b5b7ddaea72d5ea34e5b49b4c9993426796df0508"),
    (["double", "--group", "s3.json", "--field", "q"],
     "49872fd7abc7770e575f2d85ae2a973967302695e1b5a38a53497afd73cb224a"),
    (["enumerate", "--group", "s3.json", "--field", "q"],
     "9327a0a9ad7b10b0421746a7f9e10f75c64b77cf80d9a04f3bafe9c5352dcc31"),
    (["quotient", "--triple", "s3_a3_triple.json", "--field", "p7"],
     "7d3288cfa6c90d4ca676ac82788bffb8dc492c0728f9fa13beed3d4ffba0060d"),
    (["double", "--group", "a4.json", "--field", "p5"],
     "7b2b3bddd391b9e7c9bd3a531ca81c87d3e125270c03d9bdfd3ebb317c34d45c"),
    (["double", "--group", "d4.json", "--field", "p3^2"],
     "d0f5e535a087c31885018a6defe81eaf09611292e5a8ad8dc052492edf7fd645"),
    (["quotient", "--triple", "a4_v4_triple.json", "--field", "q"],
     "31e8d49956e7d8ce77ab5104ec17aedb8c65028e1842c390e21ce4d65ffa874f"),
    (["double", "--group", "ga2.json", "--field", "p5"],
     "6c958c7620e725044191bd62a4df95a9a7448174b1e0fc3fce71a2e409c24b4e"),
    (["enumerate", "--group", "d4.json", "--field", "p3"],
     "89d1b3166c32d143ef4f2736b247b4b50236c4d09c0f7474681e6b20e86841ea"),
    (["enumerate", "--group", "ga2.json", "--field", "p3"],
     "a0d037e4485f4e4d3732326656cbc5a2a4aeea0329e13550c421615ba557fb68"),
], ids=["double-z2-q", "double-s3-p7", "quotient-ga2-p3-json",
        "quotient-ga2-p3-text", "enumerate-dot-s3-p7", "enumerate-z2-q",
        "build-borel-p3", "enumerate-s3-p7", "quotient-ga4-b1-p2",
        "double-s3-q", "enumerate-s3-q", "quotient-s3-a3-p7",
        "double-a4-p5", "double-d4-p3_2", "quotient-a4-v4-q",
        "double-ga2-p5", "enumerate-d4-p3", "enumerate-ga2-p3"])
def test_sample_outputs_are_pinned(argv, digest, capsys):
    """The stdout bytes of these runs on samples/ are fixed: a refactoring
    that changes any of them changes the program's output."""
    args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_enumerate_budget_exits_before_building_the_double(monkeypatch, capsys):
    """enumerate has no use for D(G): an over-budget group exits 3 without
    building it."""
    import schemedouble.doubles
    import schemedouble.lattice

    def no_double(G):
        raise AssertionError("D(G) built")

    monkeypatch.setattr(schemedouble.doubles, "drinfeld_double", no_double)
    if hasattr(schemedouble.lattice, "drinfeld_double"):
        monkeypatch.setattr(schemedouble.lattice, "drinfeld_double", no_double)
    assert main(["enumerate", "--group", str(SAMPLES / "borel.json"),
                 "--field", "p5"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_enumerate_refuses_too_many_generator_subsets_before_any_closure(
        tmp_path, monkeypatch, capsys):
    """A cyclic group of order 64 has the node (G, 1, 1), whose D(K,H,B) has
    dimension 64^2 = 4096, above MAX_DOUBLE_DIM: enumerate exits 3 before
    the first subgroup closure."""
    import schemedouble.lattice

    def no_closure(G, gens, *args, **kwargs):
        raise AssertionError("subgroup closure started")

    monkeypatch.setattr(schemedouble.lattice, "hopf_closure", no_closure)
    n = 64
    f = write(tmp_path / "z64.json",
              {"constant": {"elements": [f"g{i}" for i in range(n)],
                            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}})
    assert main(["enumerate", "--group", f, "--field", "p3"]) == 3
    assert "64^2 = 4096, above the ceiling 625" in capsys.readouterr().err


GA2 = {"ga_kernel": {"r": 2}}


@pytest.mark.parametrize("command", ["quotient", "blocks"])
@pytest.mark.parametrize("triple", [
    {"K": "full"},
    {"group": GA2, "K": {"frobenius_sub": {}}},
    {"group": GA2, "K": {"frobenius_sub": {"r": "x"}}},
    {"group": GA2, "K": {"generators": 5}},
    {"group": GA2, "K": {"generators": [[{"indices": [99], "value": "1"}]]}},
    [GA2],
], ids=["no-group", "frobenius-no-r", "frobenius-r-not-int",
        "generators-not-list", "generator-index-out-of-range", "triple-is-list"])
def test_malformed_triple_is_a_schema_error(tmp_path, command, triple, capsys):
    f = write(tmp_path / "triple.json", triple)
    assert main([command, "--triple", f, "--field", "p3"]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("document, indices", [
    ("triple", 5), ("triple", [0.5, 0]), ("triple", [9, 9]), ("triple", [0, -1]),
    ("triple", ["a", "b"]), ("triple", [True, 0]), ("hopf", 99),
], ids=["B-indices-not-a-list", "B-index-float", "B-index-too-large",
        "B-index-negative", "B-index-string", "B-index-bool", "hopf-mult-index-too-large"])
def test_tensor_index_outside_its_axis_is_a_schema_error(tmp_path, document, indices, capsys):
    """Every index of a sparse tensor is an int (not a bool) within the size
    of its axis: B, a 3 x 3 matrix, of a triple on ga_kernel(2)/GF(3) with
    K = H = Ga_1, and the mult of k[S3] over GF(7), of size 6 x 6 x 6."""
    if document == "triple":
        sub = {"frobenius_sub": {"r": 1}}
        f = write(tmp_path / "triple.json", {"group": GA2, "K": sub, "H": sub,
                                             "B": [{"indices": indices, "value": "1"}]})
        argv = ["quotient", "--triple", f, "--field", "p3"]
    else:
        doc = hopf_to_json(constant_group(S3_LABELS, s3_cayley(),
                                          make_field("prime", p=7)).group_algebra)
        doc["mult"][0]["indices"][2] = indices
        f = write(tmp_path / "kg.json", doc)
        argv = ["verify", "--hopf", f]
    assert main(argv) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("table, code", [
    ([[0, 1], [1, 2]], 2), ([[0, 1], [1, -1]], 2), ([[0, 1], [1, True]], 2),
    ([[0, 0], [0, 0]], 1),
], ids=["entry-too-large", "entry-negative", "entry-bool", "not-a-group"])
def test_constant_table_entry_outside_the_elements_is_a_schema_error(
        tmp_path, table, code, capsys):
    """A table entry that names no element is malformed input (exit 2); a
    well-formed table that is no group is a verification failure (exit 1)."""
    f = write(tmp_path / "g.json", {"constant": {"elements": ["e", "s"], "table": table}})
    assert main(["build", "--group", f, "--field", "p3"]) == code
    err = capsys.readouterr().err
    assert ("schema error" in err) == (code == 2)
    assert ("no identity" in err) == (code == 1)


@pytest.mark.parametrize("order", [3, -1, 7])
def test_frobenius_sub_order_outside_ambient_is_a_schema_error(tmp_path, order, capsys):
    """ga_kernel(2) has Frobenius kernels of order p^s for s = 0, 1, 2 only."""
    f = write(tmp_path / "triple.json",
              {"group": GA2, "K": {"frobenius_sub": {"r": order}}})
    assert main(["quotient", "--triple", f, "--field", "p3"]) == 2
    assert "schema error" in capsys.readouterr().err


def test_ga_kernel_order_above_the_ceiling_exits_3_before_building(tmp_path, capsys):
    """ga_kernel with r = 40 asks for a group of order 2^40: exit 3 at once."""
    import time
    f = write(tmp_path / "g.json", {"ga_kernel": {"r": 40}})
    start = time.perf_counter()
    assert main(["build", "--group", f, "--field", "p2"]) == 3
    assert time.perf_counter() - start < 5
    assert "2^40" in capsys.readouterr().err


@pytest.mark.parametrize("r", [-1, "x", 2.5, True])
def test_ga_kernel_r_not_a_non_negative_integer_is_a_schema_error(tmp_path, r, capsys):
    f = write(tmp_path / "g.json", {"ga_kernel": {"r": r}})
    assert main(["build", "--group", f, "--field", "p2"]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "'r'" in err


@pytest.mark.parametrize("spec, field", [
    ({"constant": {"elements": ["a", "b", "c"], "table": [[0, 1], [1, 0]]}}, "'elements'"),
    ({"constant": {"elements": ["a", "b"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}},
     "'table'"),
    ({"constant": {"elements": "ab", "table": [[0, 1], [1, 0]]}}, "'elements'"),
    ({"constant": {"elements": ["a", "b"], "table": [[0, 1], [1]]}}, "'table'"),
    ({"restricted_lie": {"dim": 2, "bracket": [[{}, {"1": 1}], [{"1": -1}, {}]],
                         "p_map": [{"0": "z"}, {}]}}, "'p_map'"),
    ({"restricted_lie": {"dim": 2, "bracket": [[{}, {"1": 1.5}], [{"1": -1}, {}]],
                         "p_map": [{}, {}]}}, "'bracket'"),
    ({"restricted_lie": {"dim": 2, "bracket": [[{}, {"7": 1}], [{"7": -1}, {}]],
                         "p_map": [{}, {}]}}, "'bracket'"),
    ({"restricted_lie": {"dim": 2, "bracket": [[{}]], "p_map": [{}, {}]}}, "'bracket'"),
], ids=["constant-more-elements", "constant-more-rows", "constant-elements-not-list",
        "constant-table-not-square",
        "lie-coefficient-not-number", "lie-coefficient-float", "lie-generator-out-of-range",
        "lie-bracket-not-square"])
def test_malformed_group_spec_is_a_schema_error_naming_the_field(tmp_path, spec, field, capsys):
    f = write(tmp_path / "g.json", spec)
    assert main(["build", "--group", f, "--field", "p3"]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and field in err


Z2_SPEC = {"constant": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("command", ["build", "double"])
@pytest.mark.parametrize("spec, kind", [
    ({"ga_kernel": {"r": 3}}, "ga_kernel"),
    ({"mu_p": {}}, "mu_p"),
    ({"restricted_lie": {"dim": 1, "bracket": [[{}]], "p_map": [{}]}}, "restricted_lie"),
    ({"product": [Z2_SPEC, {"mu_p": {}}]}, "mu_p"),
    ({"product": [Z2_SPEC, {"product": [Z2_SPEC, {"ga_kernel": {"r": 1}}]}]}, "ga_kernel"),
], ids=["ga_kernel", "mu_p", "restricted_lie", "product-mu_p", "nested-product-ga_kernel"])
def test_connected_constructor_over_q_is_a_schema_error(tmp_path, monkeypatch, command,
                                                        spec, kind, capsys):
    """Connected group schemes need positive characteristic: over Q the
    spec is refused with exit 2, naming the constructor and the field,
    before any factor is built."""
    import schemedouble.serialize

    def no_build(*args, **kwargs):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(schemedouble.serialize, "constant_group", no_build)
    f = write(tmp_path / "g.json", spec)
    assert main([command, "--group", f, "--field", "q"]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and kind in err and "QQ" in err


def test_constant_group_above_the_order_ceiling_exits_3_before_the_table_check(tmp_path, capsys):
    """A cyclic table of order 300 is refused before its n^3 associativity
    check, and the unnamed group still gets a name in the message."""
    import time
    n = 300
    f = write(tmp_path / "g.json",
              {"constant": {"elements": [f"g{i}" for i in range(n)],
                            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}})
    for command in ("build", "double"):
        start = time.perf_counter()
        assert main([command, "--group", f, "--field", "p2"]) == 3
        assert time.perf_counter() - start < 1
        assert "constant group has order 300" in capsys.readouterr().err


def test_unnamed_double_above_the_dimension_ceiling_names_the_group(tmp_path, capsys):
    n = 30
    f = write(tmp_path / "g.json",
              {"constant": {"elements": [f"g{i}" for i in range(n)],
                            "table": [[(i + j) % n for j in range(n)] for i in range(n)]}})
    assert main(["double", "--group", f, "--field", "p2"]) == 3
    assert "D(G) has dimension 30^2 = 900" in capsys.readouterr().err


def test_double_above_the_dimension_ceiling_exits_3_before_building(tmp_path, capsys):
    """ga_kernel(6) over GF(2) has order 64, within MAX_GROUP_ORDER, but its
    D(G) would have dimension 4,096: exit 3 before the double is built."""
    import time
    f = write(tmp_path / "g.json", {"ga_kernel": {"r": 6}})
    start = time.perf_counter()
    assert main(["double", "--group", f, "--field", "p2"]) == 3
    assert time.perf_counter() - start < 5
    assert "4096" in capsys.readouterr().err


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter, without site, that imports the command line
    does not load dataclasses (about 11 ms of every process start), nor
    fractions and decimal (about 3.6 ms), which load only when a
    non-integral rational is formed."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import schemedouble.cli; "
            "print([m in sys.modules for m in ('dataclasses', 'fractions', 'decimal')])")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[False, False, False]"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Fresh processes under three PYTHONHASHSEED values print the same
    stdout and write the same files, byte for byte."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    jobs = {
        "quotient": (["quotient", "--triple", str(SAMPLES / "ga2_triple.json"),
                      "--field", "p3"], []),
        "enumerate": (["enumerate", "--group", str(SAMPLES / "s3.json"), "--field", "p7",
                       "--dot", "{dir}/lattice.dot"], ["lattice.dot"]),
    }
    for name, (argv, files) in jobs.items():
        seen = set()
        for seed in ("0", "1", "2"):
            d = tmp_path / f"{name}-{seed}"
            d.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-m", "schemedouble.cli"]
                                 + [a.format(dir=d) for a in argv],
                                 env=env, capture_output=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs = (run.stdout,) + tuple((d / f).read_bytes() for f in files)
            assert all(outputs)
            seen.add(outputs)
        assert len(seen) == 1, name


DUMP_SAMPLES = [
    {}, [], {"a": [], "b": {}},
    [{"indices": [], "value": "1"}, {"indices": [0, 12], "value": [0, 2]}],
    [{"indices": [1], "value": "2"}, {"indices": [True], "value": "2"},
     {"indices": [2], "value": None}, {"indices": [3], "value": "1", "x": 0}],
    {"s": "tab\tquote\"slash\\ newline\n é ∂ 𝔽 \u0000", "é": ["ü", {"z": "𝔽"}]},
    {"flags": [True, False, None, 1.5, -0.0, 10**20], "k": {1: 2, 3: [4]}},
    [[{"indices": [3, 4, 5], "value": "1/2"}]], {"nested": {"a": {"b": [[], {}, [[]]]}}},
]


@pytest.mark.parametrize("data", DUMP_SAMPLES + [
    json.loads(p.read_text()) for p in sorted(SAMPLES.glob("*.json"))])
def test_dump_equals_json_dumps(data):
    """serialize.dump writes the bytes of json.dumps(indent=1,
    sort_keys=True): escapes, non-ASCII and astral characters, records
    that only look like tensor records, and non-string keys included."""
    from schemedouble.serialize import dump

    assert dump(data) == json.dumps(data, indent=1, sort_keys=True)


def test_dump_equals_json_dumps_on_every_benchmark_output(tmp_path, monkeypatch):
    """Every document the benchmark jobs write (both workloads, seed 0)
    is dumped as json.dumps(indent=1, sort_keys=True) would dump it."""
    import sys

    import schemedouble.cli

    sys.path.insert(0, str(SAMPLES.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    real, seen = schemedouble.cli.dump, []

    def checked(data, path=None):
        text = real(data, path)
        assert text == json.dumps(data, indent=1, sort_keys=True)
        seen.append(path)
        return text

    monkeypatch.setattr(schemedouble.cli, "dump", checked)
    jobs = [j for w in ("verify", "quotient") for j in workloads.jobs(w, 0)
            if j.command[0] != "appendix"]
    workloads.write_inputs(jobs, tmp_path)
    for job in jobs:
        assert main(job.argv(tmp_path)) == 0
    assert len(seen) == len(jobs) == 11
