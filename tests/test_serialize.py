"""The streaming writer of serialize: random documents and lazy tables are
written as json.dumps would write them, Hopf documents round-trip bit for
bit, a document is written without holding its records or its text, and
the benchmark tracer's byte counter reads what dump wrote.  The loaders,
fed valid documents with one leaf replaced, return or raise a
SchemeDoubleError."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from schemedouble import serialize
from schemedouble.doubles import (
    drinfeld_double,
    is_factorizable,
    is_triangular,
    verify_quasitriangular,
    verify_ribbon,
)
from schemedouble.errors import SchemeDoubleError
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import constant_group
from schemedouble.hopf import verify_hopf
from schemedouble.serialize import (
    dump,
    field_from_json,
    group_from_spec,
    hopf_from_json,
    hopf_to_json,
    load,
    subgroup_from_spec,
    tensor_to_json,
)

from conftest import permutation_table

ROOT = Path(__file__).resolve().parent.parent
FIELDS = [make_field("prime", p=2), make_field("prime", p=7),
          make_field("extension", p=2, k=2), make_field("extension", p=3, k=2), QQ]


def _json_dumps(doc):
    """json.dumps(indent=1, sort_keys=True) with every table as its list
    of records."""
    return json.dumps(doc, indent=1, sort_keys=True, default=list)


RECORDS = st.lists(st.fixed_dictionaries({
    "indices": st.integers(0, 3).flatmap(
        lambda n: st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
    "value": st.one_of(st.text(), st.lists(st.integers(-9, 9), max_size=3)),
}), max_size=4)


@st.composite
def tables(draw):
    """A Records table over a random field: up to 5 entries with index
    tuples of one arity 0-3 (ints for arity 1) and random scalars."""
    F = draw(st.sampled_from(FIELDS))
    arity = draw(st.integers(0, 3))
    key = (st.integers(0, 50) if arity == 1
           else st.tuples(*[st.integers(0, 50)] * arity))
    scalar = st.fractions(max_denominator=9) if F is QQ else st.sampled_from(list(F.elements()))
    entries = draw(st.dictionaries(key, scalar, max_size=5))
    return tensor_to_json(F, entries)


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                   st.floats(allow_nan=False), st.text())
DOCUMENTS = st.recursive(
    st.one_of(LEAVES, RECORDS, tables()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()),
                        children, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(DOCUMENTS)
def test_dump_streams_json_dumps_on_random_documents(doc):
    """Record lists of arity 0-3 with string and list values, Records
    tables over every field kind, non-ASCII strings, bools, None, floats
    and non-string keys: dump to a stream writes json.dumps plus a final
    newline and returns its length without the newline; dump without a
    stream returns the same text."""
    expected = _json_dumps(doc)
    out = io.StringIO()
    written = dump(doc, out)
    assert out.getvalue() == expected + "\n"
    assert len(written) == len(expected)
    assert dump(doc) == expected


@given(tables())
def test_a_table_equals_the_records_json_load_gives_back(table):
    """A table iterates as its record dicts, as often as asked, and
    compares equal to its loaded records and unequal to any other list."""
    loaded = json.loads(dump(table))
    assert list(table) == list(table) == loaded
    assert table == loaded and loaded == table
    assert table != loaded + [{"indices": [], "value": "0"}]


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_tables_are_written_across_chunk_boundaries(extra):
    """Tables of 0, k - 1, k, k + 1 and 2k + 2 records, k the records per
    chunk, are written as json.dumps writes their records."""
    F = make_field("prime", p=7)
    for n in {0, serialize._CHUNK_RECORDS + extra, 2 * serialize._CHUNK_RECORDS + extra}:
        doc = {"t": tensor_to_json(F, {(i, i % 5): F.from_int(i) for i in range(max(n, 0))})}
        out = io.StringIO()
        dump(doc, out)
        assert out.getvalue() == _json_dumps(doc) + "\n"


@st.composite
def permutation_groups(draw):
    """A random permutation group of order at most 6 on 2 to 4 points, its
    elements in a random order, over a random field."""
    n = draw(st.integers(2, 4))
    gens = draw(st.lists(st.permutations(list(range(n))).map(tuple), min_size=1, max_size=2))
    labels, table = permutation_table(gens, seed=draw(st.integers(0, 1000)))
    assume(len(labels) <= 6)
    return constant_group(labels, table, draw(st.sampled_from(FIELDS)), name="G")


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(permutation_groups())
def test_hopf_documents_round_trip_bit_identically(G):
    """hopf_from_json of a dumped hopf_to_json(H) dumps back to the same
    bytes, for k[G], O(G) and D(G)."""
    for H in (G.group_algebra, G.coordinate_algebra, drinfeld_double(G).D):
        text = dump(hopf_to_json(H))
        assert dump(hopf_to_json(hopf_from_json(json.loads(text)))) == text


def test_double_document_is_written_in_a_quarter_of_its_size(tmp_path):
    """The `double` document of D(Borel)/GF(3), 607,373 bytes, is written
    from the algebra's tables: from building the document to closing the
    file, the traced memory stays below a quarter of the file size."""
    F = make_field("prime", p=3)
    G = group_from_spec(load(ROOT / "samples" / "borel.json"), F)
    dd = drinfeld_double(G)
    reports = {"hopf": verify_hopf(dd.D)}
    qt = dd.qt
    reports["quasitriangular"] = verify_quasitriangular(qt)
    reports["ribbon"] = verify_ribbon(qt)
    triangular, factorizable = is_triangular(qt), is_factorizable(qt)
    path = tmp_path / "double.json"
    tracemalloc.start()
    try:
        data = {
            "schema_version": 1,
            "double": hopf_to_json(dd.D),
            "R": tensor_to_json(F, qt.R),
            "V": tensor_to_json(F, qt.V),
            "reports": {k: rep.as_dict() for k, rep in reports.items()},
            "triangular": triangular,
            "factorizable": factorizable,
        }
        dump(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size == 607_373
    assert peak < size / 4, (peak, size)


def _traced(tmp_path, argv):
    """Run perfbench/tracer.py on the CLI arguments with -o; its exit code,
    report and the size of the output file."""
    out, report = tmp_path / "out.json", tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(report), "job", "--"]
        + argv + ["-o", str(out)], env=env, capture_output=True, timeout=300)
    return proc.returncode, json.loads(report.read_text()), out.stat().st_size


def test_tracer_counts_the_characters_dump_wrote(tmp_path):
    """The benchmark tracer records len() of what serialize.dump returns as
    serialize.dump.bytes; with the document streamed to the -o path, that
    is the file size without the final newline."""
    samples = ROOT / "samples"
    for argv in (["double", "--group", str(samples / "s3.json"), "--field", "p7"],
                 ["quotient", "--triple", str(samples / "ga2_triple.json"), "--field", "p3"]):
        code, report, size = _traced(tmp_path, argv)
        assert code == 0 and report["exit"] == 0
        assert report["functions"]["serialize.dump"]["calls"] == 1
        assert report["counters"]["serialize.dump.bytes"] == size - 1


def _loaders():
    """(name, valid document, loader) for each loader of outside input."""
    F3, F7 = make_field("prime", p=3), make_field("prime", p=7)
    samples = ROOT / "samples"
    ga2, s3a3 = load(samples / "ga2_triple.json"), load(samples / "s3_a3_triple.json")
    G_ga2, G_s3 = group_from_spec(ga2["group"], F3), group_from_spec(s3a3["group"], F7)
    z2 = load(samples / "z2.json")
    kz2 = json.loads(dump(hopf_to_json(group_from_spec(z2, F3).group_algebra)))
    return [
        ("prime field", {"kind": "prime", "p": 3}, field_from_json),
        ("extension field", {"kind": "extension", "p": 3, "k": 2, "poly": [1, 0, 1]},
         field_from_json),
        ("hopf k[Z2]", kz2, hopf_from_json),
        ("group z2", z2, lambda d: group_from_spec(d, F3)),
        ("group ga2", ga2["group"], lambda d: group_from_spec(d, F3)),
        ("group borel", load(samples / "borel.json"), lambda d: group_from_spec(d, F3)),
        ("frobenius_sub", ga2["K"], lambda d: subgroup_from_spec(G_ga2, d)),
        ("generators", s3a3["K"], lambda d: subgroup_from_spec(G_s3, d)),
    ]


LOADERS = _loaders()


def _leaf_paths(doc, path=()):
    """The key paths of the values of doc that are no non-empty list or
    dict."""
    items = (enumerate(doc) if isinstance(doc, list)
             else doc.items() if isinstance(doc, dict) else ())
    paths = [p for k, v in items for p in _leaf_paths(v, path + (k,))]
    return paths or [path]


def _replaced(doc, path, value):
    if not path:
        return value
    out = list(doc) if isinstance(doc, list) else dict(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


# JSON values as json.load gives them back, NaN and Infinity included;
# one in two is a scalar.
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                         st.floats(), st.text())
JSON_VALUES = st.one_of(JSON_SCALARS, st.recursive(
    JSON_SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(), children, max_size=3)),
    max_leaves=8))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(LOADERS), st.data())
def test_loaders_raise_only_scheme_double_errors_on_one_replaced_leaf(loader, data):
    """field_from_json, hopf_from_json, group_from_spec and
    subgroup_from_spec, given a valid document with one leaf replaced by a
    JSON value, return or raise a SchemeDoubleError, never another
    exception."""
    _, doc, load_doc = loader
    path = data.draw(st.sampled_from(_leaf_paths(doc)))
    try:
        load_doc(_replaced(doc, path, data.draw(JSON_VALUES)))
    except SchemeDoubleError:
        pass
