import hashlib
import json
import sys
from pathlib import Path

import pytest

from schemedouble.cli import main
from schemedouble.serialize import dump, hopf_from_json, hopf_to_json
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


def _kz2_document():
    """The document of k[Z2] over GF(3), as json.load gives it back."""
    G = constant_group(["e", "s"], [[0, 1], [1, 0]], make_field("prime", p=3))
    return json.loads(dump(hopf_to_json(G.group_algebra)))


@pytest.mark.parametrize("entry, value", [
    ("field", {"kind": "prime", "p": "x"}),
    ("field", {"kind": "extension", "p": 2, "k": "z"}),
    ("field", {"kind": "prime", "p": 4}),
    ("field", {"kind": "prime", "p": 1.5}),
    ("field", {"kind": "prime", "p": True}),
    ("field", {"kind": "extension", "p": 3, "k": 2, "poly": [2, 0, 1]}),
    ("field", {"kind": "extension", "p": 3, "k": 2, "poly": [1, 0, 1.5]}),
    ("dim", "x"),
    ("dim", True),
], ids=["p-string", "k-string", "p-not-prime", "p-float", "p-bool", "poly-reducible",
        "poly-float", "dim-string", "dim-bool"])
def test_malformed_document_field_or_dim_is_a_schema_error(tmp_path, entry, value, capsys):
    """A document field that names no supported field, or a dim that is
    not an int, exits 2 as a malformed --field token does."""
    doc = _kz2_document()
    doc[entry] = value
    assert main(["verify", "--hopf", write(tmp_path / "kz2.json", doc)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("p, k", [(10**18 + 3, 1), (2**31 + 11, 1), (46349, 2), (2, 10**11)],
                         ids=["p-1e18", "p-above-2^31", "p^2-above-2^31", "k-huge"])
@pytest.mark.parametrize("route", ["token", "document"])
def test_field_above_the_ceiling_exits_3_before_any_primality_test(
        tmp_path, z2_file, p, k, route, monkeypatch, capsys):
    """A field of more than 2^31 elements, from a --field token or from a
    document, is refused as over budget before p is tested for primality
    or a modulus for roots."""
    import schemedouble.fields

    def no_test(*args):
        raise AssertionError("primality or irreducibility test started")

    monkeypatch.setattr(schemedouble.fields, "is_prime", no_test)
    monkeypatch.setattr(schemedouble.fields, "_poly_is_irreducible", no_test)
    if route == "token":
        argv = ["build", "--group", z2_file, "--field", f"p{p}" if k == 1 else f"p{p}^{k}"]
    else:
        doc = _kz2_document()
        doc["field"] = ({"kind": "prime", "p": p} if k == 1
                        else {"kind": "extension", "p": p, "k": k})
        argv = ["verify", "--hopf", write(tmp_path / "kz2.json", doc)]
    assert main(argv) == 3
    assert "budget exhausted" in capsys.readouterr().err


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
    # Z2 x mu2 over GF(2): the cleaving of k[G] over k[G/mu2] has no closed
    # form and is solved with the grouplike-lift rows of cleaving_gamma.
    (["enumerate", "--group", "z2_mu2.json", "--field", "p2"],
     "82d422ea31e64b1474f76f5ed43dba86b7b6c6f5cd2e47b058ed6789a529f0cf"),
    (["quotient", "--triple", "z2_mu2_triple.json", "--field", "p2"],
     "6cafc940a774af7f66d08ff5ed5483812289fcb0a4b3dc26c30492e8e388b2ca"),
], ids=["double-z2-q", "double-s3-p7", "quotient-ga2-p3-json",
        "quotient-ga2-p3-text", "enumerate-dot-s3-p7", "enumerate-z2-q",
        "build-borel-p3", "enumerate-s3-p7", "quotient-ga4-b1-p2",
        "double-s3-q", "enumerate-s3-q", "quotient-s3-a3-p7",
        "double-a4-p5", "double-d4-p3_2", "quotient-a4-v4-q",
        "double-ga2-p5", "enumerate-d4-p3", "enumerate-ga2-p3",
        "enumerate-z2-mu2-p2", "quotient-z2-mu2-p2"])
def test_sample_outputs_are_pinned(argv, digest, capsys):
    """The stdout bytes of these runs on samples/ are fixed: a refactoring
    that changes any of them changes the program's output."""
    args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_enumerate_budget_exits_before_building_the_double(tmp_path, monkeypatch, capsys):
    """enumerate has no use for D(G): a group it refuses (Z2 over
    GF(2500009), whose grouplike search has 2^2 * 2500009 branches, above
    its budget of 10^7) exits 3 without building D(G) or any quotient pair.
    The refusal is a FieldTooLargeForEnumeration, which is a BudgetExceeded,
    the one exception main turns into exit 3."""
    import schemedouble.doubles
    import schemedouble.lattice
    import schemedouble.quotients
    from schemedouble.errors import BudgetExceeded, FieldTooLargeForEnumeration

    assert issubclass(FieldTooLargeForEnumeration, BudgetExceeded)

    def no_double(*args):
        raise AssertionError("D(G) or a quotient pair built")

    monkeypatch.setattr(schemedouble.doubles, "drinfeld_double", no_double)
    monkeypatch.setattr(schemedouble.quotients, "drinfeld_double", no_double)
    monkeypatch.setattr(schemedouble.lattice, "build_quotient", no_double)
    f = write(tmp_path / "z2.json", {"constant": {"elements": ["e", "s"],
                                                  "table": [[0, 1], [1, 0]]}})
    assert main(["enumerate", "--group", f, "--field", "p2500009"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_enumerate_borel_gf5_is_complete_and_pinned(capsys):
    """Borel over GF(5), of order 25, has the 3 normal subgroups 1, the
    line of y and G: enumerate exits 0 with 6 nodes and 6 covers, and its
    stdout bytes are fixed."""
    assert main(["enumerate", "--group", str(SAMPLES / "borel.json"), "--field", "p5"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["count"] == len(data["nodes"]) == 6 and len(data["edges"]) == 6
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "4d6738b6b96cf4eb7e4f6b5e6e6f9ce67fa64df011ac454fa99d0bf4a2d405f7")


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


def test_enumerate_ga2_mu2_gf2_is_complete_and_pinned(tmp_path, capsys):
    """Ga_2 x mu_2 over GF(2): the source chain of hopf_algebra_maps takes
    its generators from the defect-space complement, so it covers every
    (pointed) k[H] of G, and enumerate exits 0 with 52 nodes and 132
    covers, its stdout bytes fixed."""
    f = write(tmp_path / "ga2_mu2.json", {"product": [GA2, {"mu_p": {}}]})
    assert main(["enumerate", "--group", f, "--field", "p2"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["count"] == len(data["nodes"]) == 52 and len(data["edges"]) == 132
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "0c4c6370de90329db4e76eca19cb0f3a788836ae2270d4f1377506ae43594ab9")


GA2 = {"ga_kernel": {"r": 2}}
BOREL = json.loads((SAMPLES / "borel.json").read_text())["restricted_lie"]


@pytest.mark.parametrize("command", ["quotient", "blocks"])
@pytest.mark.parametrize("triple", [
    {"K": "full"},
    {"group": GA2, "K": {"frobenius_sub": {}}},
    {"group": GA2, "K": {"frobenius_sub": {"r": "x"}}},
    {"group": GA2, "K": {"frobenius_sub": {"r": 1.9}}},
    {"group": GA2, "K": {"frobenius_sub": {"r": "1"}}},
    {"group": GA2, "K": {"frobenius_sub": {"r": True}}},
    {"group": {"mu_p": {}}, "K": {"frobenius_sub": {"r": 1}}},
    {"group": GA2, "K": {"generators": 5}},
    {"group": GA2, "K": {"generators": [[{"indices": [99], "value": "1"}]]}},
    [GA2],
], ids=["no-group", "frobenius-no-r", "frobenius-r-not-int", "frobenius-r-float",
        "frobenius-r-int-string", "frobenius-r-bool", "frobenius-outside-ga-kernel",
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
        doc = json.loads(dump(hopf_to_json(constant_group(
            S3_LABELS, s3_cayley(), make_field("prime", p=7)).group_algebra)))
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
    *[({"restricted_lie": dict(BOREL, dim=dim)}, "restricted_lie 'dim' must be an integer")
      for dim in (2.9, "2", True)],
    ({"product": [GA2, GA2, GA2]}, "nest"),
], ids=["constant-more-elements", "constant-more-rows", "constant-elements-not-list",
        "constant-table-not-square",
        "lie-coefficient-not-number", "lie-coefficient-float", "lie-generator-out-of-range",
        "lie-bracket-not-square", "lie-dim-float", "lie-dim-string", "lie-dim-bool",
        "product-three-factors"])
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


def test_hopf_document_above_the_dimension_ceiling_exits_3_before_verifying(
        tmp_path, monkeypatch, capsys):
    """A Hopf document of dim 626, one above MAX_DOUBLE_DIM, exits 3 with one
    budget line before its labels or tables are read, and verify_hopf is
    never called."""
    import schemedouble.cli
    called = []
    monkeypatch.setattr(schemedouble.cli, "verify_hopf", lambda H: called.append(H))
    f = write(tmp_path / "h.json", {"field": {"kind": "prime", "p": 2}, "dim": 626,
                                    "labels": None, "mult": None})
    assert main(["verify", "--hopf", f]) == 3
    assert called == []
    assert capsys.readouterr().err == (
        "budget exhausted: hopf document of dim 626 is above the ceiling 625\n")


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
    """Every document the benchmark jobs write (both workloads, seed 0) is
    written as json.dumps(indent=1, sort_keys=True) would dump it, with
    its tables materialized as lists of records, and a final newline; dump
    returns a length of the text without that newline."""
    import sys

    import schemedouble.cli

    sys.path.insert(0, str(SAMPLES.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    real, seen = schemedouble.cli.dump, []

    def checked(data, out=None):
        written = real(data, out)
        text = Path(out).read_text()
        assert text == json.dumps(data, indent=1, sort_keys=True, default=list) + "\n"
        assert len(written) == len(text) - 1
        seen.append(out)
        return written

    monkeypatch.setattr(schemedouble.cli, "dump", checked)
    jobs = [j for w in ("verify", "quotient") for j in workloads.jobs(w, 0)
            if j.command[0] != "appendix"]
    workloads.write_inputs(jobs, tmp_path)
    for job in jobs:
        assert main(job.argv(tmp_path)) == 0
    assert len(seen) == len(jobs) == 11


@pytest.mark.parametrize("argv, digest", [
    (["build", "--group", "mu_p.json", "--field", "p3"],
     "2ff016657c1f477d02e27885ed693b0718295504c4bf40c173a90a42bf58813b"),
    (["build", "--group", "s3.json", "--field", "p2^2"],
     "6fc1dd06c08dfce1d814182d53228a4df98dde9ca4b6d49114fdc04aab47e08c"),
    (["build", "--group", "s3.json", "--field", "p2^3"],
     "2ec048e8bde8c8014233e0842013cd026f51703c461c83dd8991845f878568b2"),
    (["double", "--group", "z2.json", "--field", "q", "--format", "text"],
     "a00d83a9931f46b3a1b78dab014328ee637b06c9fe816abf56faad5bc834400a"),
], ids=["build-mu_p-p3", "build-s3-p2_2", "build-s3-p2_3", "double-z2-q-text"])
def test_builds_over_gf_pk_mu_p_and_text_reports_are_pinned(tmp_path, argv, digest, capsys):
    """The mu_p build spec, documents over GF(4) and GF(8), and the text
    report of `double`: their stdout bytes are fixed."""
    write(tmp_path / "mu_p.json", {"mu_p": {}})
    args = [str(tmp_path / a) if a == "mu_p.json" else str(SAMPLES / a)
            if a.endswith(".json") else a for a in argv]
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _s3_group_algebra(tmp_path, field):
    out = tmp_path / "s3_built.json"
    assert main(["build", "--group", str(SAMPLES / "s3.json"), "--field", field,
                 "-o", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("field", ["p2^2", "p2^3"])
def test_documents_over_gf_pk_load_and_verify(tmp_path, field):
    """Both algebras of S3 built over GF(4) and GF(8) load back (the
    extension branches of field_from_json and scalar_from_json) and pass
    `verify`."""
    built = _s3_group_algebra(tmp_path, field)
    for key in ("group_algebra", "coordinate_algebra"):
        hopf = write(tmp_path / f"{key}.json", built[key])
        rep = tmp_path / f"{key}.report.json"
        assert main(["verify", "--hopf", hopf, "-o", str(rep)]) == 0
        assert json.loads(rep.read_text())["ok"]


def test_verify_text_report_is_pinned(tmp_path, z2_file, capsys):
    out = tmp_path / "z2_built.json"
    assert main(["build", "--group", z2_file, "--field", "q", "-o", str(out)]) == 0
    hopf = write(tmp_path / "hopf.json", json.loads(out.read_text())["group_algebra"])
    assert main(["verify", "--hopf", hopf, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("report: k[Z2]\n  [pass] associativity\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "168b0a4dbd9fdd4b661c86be9612317221b8c61ebfdcf99a4a4b2bc0f55fdea7")


@pytest.mark.parametrize("value", [[1], [1, 0, 0], [1, 0.5], ["1", "0"]],
                         ids=["too-short", "too-long", "float", "strings"])
def test_extension_scalar_not_k_integers_is_a_schema_error(tmp_path, value, capsys):
    """A GF(4) scalar is a list of exactly 2 integers: `verify` on a
    document with any other list exits 2 instead of reading it."""
    doc = _s3_group_algebra(tmp_path, "p2^2")["group_algebra"]
    doc["mult"][0]["value"] = value
    bad = write(tmp_path / "bad.json", doc)
    assert main(["verify", "--hopf", bad]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--format", "json"], ["build", "--format", "text"],
    ["build", "--format", "dot"], ["double", "--format", "dot"],
    ["enumerate", "--format", "text"],
], ids=["build-json", "build-text", "build-dot", "double-dot", "enumerate-text"])
def test_format_a_subcommand_does_not_implement_exits_2(z2_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--group", z2_file, "--field", "q"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_enumerate_dot_writes_the_output_path(tmp_path, z2_file, capsys):
    assert main(["enumerate", "--format", "dot", "--group", z2_file, "--field", "q"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("digraph")
    out = tmp_path / "lattice.dot"
    assert main(["enumerate", "--format", "dot", "--group", z2_file, "--field", "q",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_appendix_regenerate_writes_the_committed_golden(tmp_path, monkeypatch, capsys):
    import schemedouble.cli

    golden = schemedouble.cli._golden_path(2).read_bytes()
    monkeypatch.setattr(schemedouble.cli, "_golden_path",
                        lambda p: tmp_path / f"appendix_p{p}.json")
    assert main(["appendix", "--p", "2", "--regenerate"]) == 0
    assert (tmp_path / "appendix_p2.json").read_bytes() == golden


@pytest.mark.parametrize("p", [7, 4])
def test_appendix_without_a_golden_exits_1_before_computing(p, monkeypatch, capsys):
    """appendix --p 7, and --p 4, which is not prime, find no golden file and
    exit 1 with one line before appendix_report runs."""
    import schemedouble.cli

    def report(p):
        raise AssertionError("appendix_report ran")

    monkeypatch.setattr(schemedouble.cli, "appendix_report", report)
    assert main(["appendix", "--p", str(p)]) == 1
    assert capsys.readouterr().err == f"no golden file for p={p}\n"


def test_a_closed_stdout_exits_1_without_a_traceback():
    """A reader that takes 100 bytes and closes the pipe, as ``| head -c
    100`` does, ends the run with exit 1 and one stderr line.  The output
    of ``double`` D4/GF(3), 92 kB, is more than the pipe and the stream
    buffer hold, so the run is still writing when the pipe closes."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "schemedouble.cli", "double", "--group",
                             str(SAMPLES / "d4.json"), "--field", "p3"], env=env, bufsize=0,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = b""
    while len(head) < 100 and (chunk := proc.stdout.read(100 - len(head))):
        head += chunk
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1 and len(head) == 100
    assert "Traceback" not in err
    assert err == "error: standard output closed before the output was written\n"


@pytest.mark.parametrize("argv", [
    ["double"], ["double", "--format", "text"], ["enumerate", "--format", "dot"],
], ids=["json", "text", "dot"])
def test_a_stdout_closed_at_start_exits_1(z2_file, capsys, monkeypatch, argv):
    """Python sets sys.stdout to None when the process starts with its
    standard output closed (``>&-``): a run that writes there exits 1 with
    one stderr line, as on a closed pipe, and one with -o writes its file
    and exits 0."""
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv + ["--group", z2_file, "--field", "p3"]) == 1
    assert capsys.readouterr().err == (
        "error: standard output closed before the output was written\n")


def test_a_stdout_closed_at_start_does_not_stop_an_output_file(tmp_path, z2_file, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "d.json"
    assert main(["double", "--group", z2_file, "--field", "p3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["triangular"] is False
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag, argv", [
    ("-o", ["double"]), ("-o", ["enumerate", "--format", "dot"]), ("--dot", ["enumerate"]),
], ids=["o-json", "o-dot", "dot"])
def test_an_output_path_in_a_missing_directory_exits_1(tmp_path, z2_file, capsys, flag, argv):
    """An -o or --dot path that cannot be opened ends in one stderr line and
    exit 1, not a traceback."""
    path = tmp_path / "missing" / "out"
    assert main(argv + ["--group", z2_file, "--field", "p3", flag, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{path}'\n")


def test_hopf_map_search_over_its_candidate_budget_exits_3(monkeypatch, capsys):
    """enumerate exits 3 when a search of Hopf algebra maps B: k[H] -> O(K)
    visits more branches than hopf._MAP_BUDGET: on S3 over GF(7), a budget
    of 1 lets the search for H = 1 (a single branch) through and refuses
    the first non-trivial H."""
    import schemedouble.hopf

    monkeypatch.setattr(schemedouble.hopf, "_MAP_BUDGET", 1)
    assert main(["enumerate", "--group", str(SAMPLES / "s3.json"), "--field", "p7"]) == 3
    assert capsys.readouterr().err == "budget exhausted: candidate budget 1 exhausted\n"
