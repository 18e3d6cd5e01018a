"""JSON interchange: exact scalars, sparse tensors, Hopf algebras, group
scheme build specs, subgroup specs, and triples.

Scalars serialize in the JSON form their field parses and prints
(``Field.to_json``, ``Field.from_json``): decimal strings (prime fields),
arrays of exactly k integer coefficients (GF(p^k)), or "num/den" strings
(rationals).  Sparse tensors are arrays of {"indices": [...], "value": ...}
records, sorted by indices, so emitted documents are canonical and
diffable.

The tensors of a document (``tensor_to_json``, ``cells_to_json``,
``matrix_to_json``, ``linmap_to_json`` and the tables of ``hopf_to_json``)
are ``Records``: lazy views of the algebra's own dicts, read when the
document is written.  ``dump`` streams a document to its output chunk by
chunk, formatting each table straight from its (indices, scalar) pairs, so
writing a document holds neither a list of record dicts nor the whole
text.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .errors import BudgetExceeded, NotPrime, ReduciblePolynomial, SchemaError
from .fields import Field, make_field
from .hopf import HopfAlgebra, LinMap
from .groupschemes import (
    GroupScheme,
    SubgroupScheme,
    constant_group,
    direct_product,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    mu_p_kernel,
    restricted_enveloping,
    subgroup_from_generators,
    trivial_subgroup,
)

SCHEMA_VERSION = 1

# The largest group order a build spec may ask for.  The tests, samples and
# benchmark use orders up to 16; D(G) of a group of order 256 has dimension
# 65,536, beyond anything the exact verifiers finish.
MAX_GROUP_ORDER = 256

# The largest dimension |G|^2 of a D(G) that drinfeld_double builds: 625
# admits every group of order 25 (Borel and ga_kernel(2) over GF(5)); a
# group of order 64 would give a D(G) of dimension 4,096.  It is also the
# largest dim of a Hopf document that hopf_from_json reads, so every algebra
# the CLI writes can be read back.
MAX_DOUBLE_DIM = 625


def scalar_from_json(F: Field, data):
    try:
        return F.from_json(data)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad scalar {data!r}: {exc}")


def field_to_json(F: Field):
    return F.describe()


def _int_entry(data, key, what):
    """data[key], which must be an int and not a bool."""
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{what} {key!r} must be an integer, got {v!r}")
    return v


def field_from_json(data) -> Field:
    """The field of a spec; SchemaError for a spec that names no supported
    field, BudgetExceeded for one above fields.MAX_FIELD_SIZE."""
    try:
        kind = data["kind"]
        if kind == "prime":
            return make_field("prime", p=_int_entry(data, "p", "field"))
        if kind == "extension":
            poly = data.get("poly")
            if poly is not None and (not isinstance(poly, list) or any(
                    isinstance(c, bool) or not isinstance(c, int) for c in poly)):
                raise SchemaError(f"field 'poly' must be a list of integers, got {poly!r}")
            return make_field("extension", p=_int_entry(data, "p", "field"),
                              k=_int_entry(data, "k", "field"), poly=poly)
        if kind == "rationals":
            return make_field("rationals")
    except (KeyError, TypeError, NotPrime, ReduciblePolynomial) as exc:
        raise SchemaError(f"bad field spec: {exc}")
    raise SchemaError(f"unknown field kind {data!r}")


class Records:
    """The {"indices", "value"} records of a sparse tensor, formed on demand:
    ``pairs()`` gives a fresh iterator of (index tuple, scalar) pairs in
    record order.

    Iterating gives the record dicts, and a table compares equal to a list
    of records (such as ``json.load`` gives back) exactly when its records
    are those.  ``dump`` formats the pairs directly.  The dicts the pairs
    are read from must not change once the table is made."""

    __slots__ = ("field", "pairs")

    def __init__(self, F: Field, pairs):
        self.field = F
        self.pairs = pairs

    def __iter__(self):
        value = self.field.to_json
        for idx, c in self.pairs():
            yield {"indices": list(idx), "value": value(c)}

    def __eq__(self, other):
        if isinstance(other, (Records, list)):
            return list(self) == list(other)
        return NotImplemented


def _as_tuple(k):
    return (k,) if isinstance(k, int) else k


def tensor_to_json(F: Field, entries):
    """entries: dict mapping index tuples (or ints) to scalars."""
    return Records(F, lambda: ((_as_tuple(k), entries[k])
                               for k in sorted(entries, key=_as_tuple)))


def cells_to_json(F: Field, cells):
    """The records of a dict of sparse tensors {key: {index: scalar}}, each
    with indices key + index; keys of one arity and indices of one arity
    make the order by key, then by index, the order sorted by indices."""
    def pairs():
        for key in sorted(cells):
            head = _as_tuple(key)
            for i, c in sorted(cells[key].items()):
                yield ((*head, i) if isinstance(i, int) else head + i), c

    return Records(F, pairs)


def tensor_from_json(F: Field, data, shape):
    """The sparse tensor of a list of records whose indices lie on the axes
    of the given sizes: each index an int (not a bool) in 0..size-1, else
    SchemaError."""
    out = {}
    if not isinstance(data, list):
        raise SchemaError("sparse tensor must be a list of records")
    for rec in data:
        try:
            idx = rec["indices"]
            val = scalar_from_json(F, rec["value"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad tensor record {rec!r}: {exc}")
        if not isinstance(idx, list) or len(idx) != len(shape):
            raise SchemaError(f"expected a list of {len(shape)} indices, got {idx!r}")
        for i, size in zip(idx, shape):
            if type(i) is not int or not 0 <= i < size:
                raise SchemaError(f"index {i!r} outside 0..{size - 1} in {idx!r}")
        if val != F.zero():
            key = idx[0] if len(shape) == 1 else tuple(idx)
            out[key] = val
    return out


def hopf_to_json(H: HopfAlgebra):
    """The document of H; the records of mult (read row by row from
    ``H.cells``) and of comult come sorted cell by cell, which is their
    order sorted by (i, j, k)."""
    F = H.field
    mult = lambda: (((i, j, k), c) for i, row in enumerate(H.cells)
                    for j in sorted(row) for k, c in sorted(row[j].items()))
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_json(F),
        "dim": H.dim,
        "labels": list(H.labels),
        "mult": Records(F, mult),
        "unit": tensor_to_json(F, H.unit),
        "comult": cells_to_json(F, H.comult),
        "counit": tensor_to_json(F, H.counit),
        "antipode": matrix_to_json(F, H.antipode),
        "name": H.name,
    }


def hopf_from_json(data) -> HopfAlgebra:
    """The Hopf algebra of a document; a dim above MAX_DOUBLE_DIM raises
    BudgetExceeded before the labels or tables are read."""
    try:
        F = field_from_json(data["field"])
        dim = _int_entry(data, "dim", "hopf document")
        if dim > MAX_DOUBLE_DIM:
            raise BudgetExceeded(f"hopf document of dim {dim} is above the ceiling "
                                 f"{MAX_DOUBLE_DIM}")
        labels = list(data["labels"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad hopf document: {exc}")
    if len(labels) != dim:
        raise SchemaError("label count differs from dim")
    mult3 = tensor_from_json(F, data.get("mult", []), (dim, dim, dim))
    cells = [{} for _ in range(dim)]
    for (i, j, k), c in mult3.items():
        cells[i].setdefault(j, {})[k] = c
    comult3 = tensor_from_json(F, data.get("comult", []), (dim, dim, dim))
    comult = {i: {} for i in range(dim)}
    for (i, j, k), c in comult3.items():
        comult[i][(j, k)] = c
    return HopfAlgebra(
        F, labels, cells,
        tensor_from_json(F, data.get("unit", []), (dim,)),
        comult,
        tensor_from_json(F, data.get("counit", []), (dim,)),
        matrix_from_json(F, data.get("antipode", []), (dim, dim)),
        name=data.get("name", ""),
    )


def matrix_to_json(F: Field, mat):
    """The records of a matrix kept as columns {j: {i: c}}, sorted by (i, j)."""
    return Records(F, lambda: sorted((((i, j), c) for j, col in mat.items()
                                      for i, c in col.items()), key=itemgetter(0)))


def linmap_to_json(F: Field, m: LinMap):
    return matrix_to_json(F, m.mat)


def matrix_from_json(F: Field, data, shape):
    """The columns of a matrix of the given (rows, columns) shape."""
    ent = tensor_from_json(F, data, shape)
    mat = {}
    for (i, j), c in ent.items():
        mat.setdefault(j, {})[i] = c
    return mat


def _check_order(base, exp, what):
    """BudgetExceeded when the order base^exp is above MAX_GROUP_ORDER; a
    huge exp costs nothing, since base >= 2 makes base^bits too large."""
    if base ** min(exp, MAX_GROUP_ORDER.bit_length()) > MAX_GROUP_ORDER:
        order = base if exp == 1 else f"{base}^{exp}"
        raise BudgetExceeded(
            f"{what} has order {order}, above the ceiling {MAX_GROUP_ORDER}")


def _lie_coefficients(cell, n, what):
    """A restricted_lie coefficient dict {"generator": integer} with the
    generator in 0..n-1, keyed by int."""
    out = {}
    for g, c in cell.items():
        i = int(g)
        if not 0 <= i < n:
            raise SchemaError(f"restricted_lie {what!r} generator {g!r} outside 0..{n - 1}")
        if isinstance(c, bool) or not isinstance(c, int):
            raise SchemaError(f"restricted_lie {what!r} coefficient must be an integer, got {c!r}")
        out[i] = c
    return out


# Constructors of connected group schemes, which exist only in
# characteristic p > 0.
_CHAR_P_CONSTRUCTORS = ("ga_kernel", "mu_p", "restricted_lie")


def _char_p_constructor(spec):
    """The first constructor of spec, products included, that needs
    positive characteristic, or None."""
    if not isinstance(spec, dict) or len(spec) != 1:
        return None
    kind, body = next(iter(spec.items()))
    if kind in _CHAR_P_CONSTRUCTORS:
        return kind
    if kind == "product" and isinstance(body, list):
        return next(filter(None, map(_char_p_constructor, body)), None)
    return None


def group_from_spec(spec, F: Field) -> GroupScheme:
    """Build a group scheme from its JSON build spec.

    Orders above MAX_GROUP_ORDER raise BudgetExceeded before anything of
    that size is built; a connected constructor over a field of
    characteristic 0, alone or in a product, raises SchemaError before
    anything is built."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise SchemaError("group spec must have exactly one constructor key")
    if F.char == 0:
        kind = _char_p_constructor(spec)
        if kind:
            raise SchemaError(f"{kind} needs a field of positive characteristic, got {F!r}")
    kind, body = next(iter(spec.items()))
    if kind == "constant":
        if not isinstance(body, dict) or not all(
                isinstance(body.get(k), list) for k in ("elements", "table")):
            raise SchemaError("bad constant spec: it needs lists 'elements' and 'table'")
        elements, table = body["elements"], body["table"]
        name = body.get("name", "")
        _check_order(len(table), 1, f"constant group {name}".rstrip())
        if len(elements) != len(table):
            raise SchemaError(f"constant 'elements' has {len(elements)} entries "
                              f"but 'table' has {len(table)} rows")
        if any(not isinstance(row, list) or len(row) != len(table) for row in table):
            raise SchemaError(f"constant 'table' must be {len(table)} rows of {len(table)} entries")
        if any(type(x) is not int or not 0 <= x < len(table) for row in table for x in row):
            raise SchemaError(f"constant 'table' entries must be integers in 0..{len(table) - 1}")
        try:
            return constant_group(elements, table, F, name=name)
        except TypeError as exc:
            raise SchemaError(f"bad constant spec: {exc}")
    if kind == "ga_kernel":
        if not isinstance(body, dict) or "r" not in body:
            raise SchemaError("bad ga_kernel spec: it needs an entry 'r'")
        r = body["r"]
        if isinstance(r, bool) or not isinstance(r, int) or r < 0:
            raise SchemaError(f"ga_kernel 'r' must be a non-negative integer, got {r!r}")
        _check_order(F.char, r, f"ga_kernel with r = {r}")
        return ga_kernel(r, F)
    if kind == "mu_p":
        _check_order(F.char, 1, "mu_p")
        return mu_p_kernel(F)
    if kind == "product":
        if not isinstance(body, list) or len(body) != 2:
            raise SchemaError("product spec needs two factors; nest products for more, "
                              "as in {\"product\": [a, {\"product\": [b, c]}]}")
        G1, G2 = group_from_spec(body[0], F), group_from_spec(body[1], F)
        _check_order(G1.order * G2.order, 1, "product")
        return direct_product(G1, G2)
    if kind == "restricted_lie":
        try:
            n = _int_entry(body, "dim", "restricted_lie")
            bracket = [[_lie_coefficients(cell, n, "bracket") for cell in row]
                       for row in body["bracket"]]
            p_map = [_lie_coefficients(cell, n, "p_map") for cell in body["p_map"]]
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise SchemaError(f"bad restricted_lie spec: {exc}")
        if n < 0:
            raise SchemaError(f"restricted_lie 'dim' must be non-negative, got {n}")
        if len(bracket) != n or any(len(row) != n for row in bracket) or len(p_map) != n:
            raise SchemaError(f"restricted_lie 'bracket' must be {n} x {n} "
                              f"and 'p_map' must have {n} entries")
        _check_order(F.char, n, f"restricted_lie with dim = {n}")
        return restricted_enveloping(n, bracket, p_map, F,
                                     name=body.get("name", ""))
    raise SchemaError(f"unknown group constructor {kind!r}")


def subgroup_from_spec(G: GroupScheme, spec) -> SubgroupScheme:
    if spec == "trivial" or spec == {"trivial": {}}:
        return trivial_subgroup(G)
    if spec == "full" or spec == {"full": {}}:
        return full_subgroup(G)
    if isinstance(spec, dict) and "frobenius_sub" in spec:
        body = spec["frobenius_sub"]
        s = body.get("r") if isinstance(body, dict) else body
        if isinstance(s, bool) or not isinstance(s, int):
            raise SchemaError(f"frobenius_sub 'r' must be an integer, got {s!r}")
        if G.kind != "ga":
            raise SchemaError("frobenius_sub needs a ga_kernel ambient")
        if not 0 <= s <= G.payload["r"]:
            raise SchemaError(f"frobenius_sub order {s} outside 0..{G.payload['r']}")
        return ga_frobenius_subgroup(G, s)
    if isinstance(spec, dict) and "generators" in spec:
        try:
            gens = [tensor_from_json(G.field, g, (G.order,)) for g in spec["generators"]]
        except TypeError as exc:
            raise SchemaError(f"bad generators spec: {exc}")
        return subgroup_from_generators(G, gens)
    raise SchemaError(f"unknown subgroup spec {spec!r}")


_encode_str = json.encoder.encode_basestring_ascii

# Records formatted into one chunk; a chunk of 3-index records is about
# 9 kB, so a chunk costs little memory and each write carries many records.
_CHUNK_RECORDS = 128


def _record_chunks(table, level):
    """The chunks of the list of records of table at indentation level,
    each record from one template per arity.  A value is a JSON string or,
    over GF(p^k), a list of k ints, written in the layout of the indices."""
    pad = ["\n" + " " * (level + d) for d in range(4)]
    value = table.field.to_json
    templates = {}
    joiner = "," + pad[1]
    sep = "[" + pad[1]
    open_list, comma, close_list = "[" + pad[3], "," + pad[3], pad[2] + "]"
    batch = []
    for idx, c in table.pairs():
        tmpl = templates.get(len(idx))
        if tmpl is None:
            body = open_list + comma.join(["%d"] * len(idx)) + close_list if idx else "[]"
            tmpl = templates[len(idx)] = (
                "{" + pad[2] + '"indices": ' + body
                + "," + pad[2] + '"value": %s' + pad[1] + "}")
        v = value(c)
        v = (_encode_str(v) if type(v) is str
             else open_list + comma.join(map(int.__repr__, v)) + close_list)
        batch.append(tmpl % (*idx, v))
        if len(batch) == _CHUNK_RECORDS:
            yield sep + joiner.join(batch)
            sep, batch = joiner, []
    if batch:
        yield sep + joiner.join(batch)
    elif sep is not joiner:  # the table has no record
        yield "[]"
        return
    yield pad[0] + "]"


def _chunks(data, level):
    """The text of ``json.dumps(data, indent=1, sort_keys=True)`` for a
    value at the given indentation level, in chunks; a ``Records`` table
    is written as the list of its records."""
    t = type(data)
    if t is str:
        yield _encode_str(data)
    elif t is int:
        yield int.__repr__(data)
    elif t is Records:
        yield from _record_chunks(data, level)
    elif (t is list or t is tuple) and data:
        pad = "\n" + " " * (level + 1)
        if all(type(v) is int for v in data):  # GF(p^k) scalars, index lists
            yield "[" + pad + ("," + pad).join(map(int.__repr__, data))
        else:
            sep = "[" + pad
            for v in data:
                yield sep
                yield from _chunks(v, level + 1)
                sep = "," + pad
        yield "\n" + " " * level + "]"
    elif t is dict and data and all(type(k) is str for k in data):
        pad = "\n" + " " * (level + 1)
        sep = "{" + pad
        for k, v in sorted(data.items()):
            yield sep + _encode_str(k) + ": "
            yield from _chunks(v, level + 1)
            sep = "," + pad
        yield "\n" + " " * level + "}"
    else:
        # empty containers, bool, None, float, dicts with non-string keys:
        # the standard encoder, with any table inside as its list of
        # records, its lines shifted to this level (JSON strings hold no
        # raw newline)
        yield json.dumps(data, indent=1, sort_keys=True, default=list).replace(
            "\n", "\n" + " " * level)


class Written(int):
    """The number of characters ``dump`` wrote to a stream before the
    final newline; ``len()`` gives it too, as it gives the length of the
    text ``dump`` returns without a stream."""

    __slots__ = ()

    def __len__(self):
        return int(self)


def dump(data, out=None):
    """``json.dumps(data, indent=1, sort_keys=True)``, with ``Records``
    tables written as their lists of records.

    Without out, the text is returned.  Given out, a writable text stream
    or a path to create, the text and a final newline are written to it
    chunk by chunk, and a ``Written`` count of the characters before the
    newline is returned.  Records are formatted from one template per
    arity, instead of one encoder chunk per bracket, key and number."""
    if out is None:
        return "".join(_chunks(data, 0))
    if hasattr(out, "write"):
        return _write(data, out)
    with open(out, "w") as fh:
        return _write(data, fh)


def _write(data, stream):
    """Write the chunks of data and a final newline to stream; ``dump``
    calls this rather than itself, so each document is one call of it."""
    n = 0
    for chunk in _chunks(data, 0):
        n += len(chunk)
        stream.write(chunk)
    stream.write("\n")
    return Written(n)


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
