"""In-process tracer for one `schemedouble` CLI job.

    python3 perfbench/tracer.py OUT.json JOB_ID -- <cli arguments>

runs `schemedouble.cli.main(<cli arguments>)` with the public functions in
TRACED wrapped, then writes the job's exit code, wall time, per-function
aggregates and spans to OUT.json and exits with the job's exit code.

A wrapped name is rebound in every `schemedouble` module that holds it (for
example `verify_hopf`, imported by `cli`, `groupschemes` and `quotients`), and
wrapped methods are replaced on their class.  Each call records a span (name,
start, end, parent span, job id) in memory; the functions in AGGREGATE_ONLY
are called so often that they only update their aggregates.

Per-element methods stay unwrapped: `HopfAlgebra.product` (2.18 million calls
on one ga_kernel(2)/GF(5) quotient job; wrapping it doubled that job's time),
`HopfAlgebra.coproduct`, `counit_of` and `antipode_of`, `LinMap.apply`,
`t2_outer`, `v_axpy`, `mat_apply` and the field operations, each called per
basis element or per scalar.  A function missing from the program is skipped
and reads 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function.
TRACED = [
    ("hopf", "verify_hopf"),
    ("hopf", "HopfAlgebra.tensor_square_product"),
    ("hopf", "grouplikes"),
    ("hopf", "hopf_algebra_maps"),
    ("hopf", "is_hopf_morphism"),
    ("groupschemes", "subgroup_from_generators"),
    ("groupschemes", "subgroup_from_subspace"),
    ("groupschemes", "is_normal"),
    ("groupschemes", "centralize"),
    ("groupschemes", "quotient_by_normal"),
    ("groupschemes", "section_mu"),
    ("groupschemes", "cleaving_gamma"),
    ("doubles", "drinfeld_double"),
    ("doubles", "verify_quasitriangular"),
    ("doubles", "verify_ribbon"),
    ("doubles", "is_triangular"),
    ("doubles", "is_factorizable"),
    ("quotients", "build_quotient"),
    ("quotients", "Triple.validate"),
    ("quotients", "build_theta"),
    ("quotients", "recognize_triple"),
    ("quotients", "theta_kernel_matches_ideal"),
    ("linalg", "Echelon.insert"),
    ("linalg", "Echelon.reduce"),
    ("linalg", "solve_rows"),
    ("linalg", "mat_kernel"),
    ("lattice", "enumerate_triples"),
    ("lattice", "normal_subgroups"),
    ("lattice", "equivariant_maps"),
    ("lattice", "classify"),
    ("lattice", "hasse_edges"),
    ("appendix", "appendix_report"),
    ("serialize", "dump"),
    ("serialize", "group_from_spec"),
]

AGGREGATE_ONLY = {
    "hopf.HopfAlgebra.tensor_square_product",
    "linalg.Echelon.insert",
    "linalg.Echelon.reduce",
}

def _algebra_key(H, *args, **kwargs):
    """Structure-constant hash of a Hopf algebra."""
    return hash((repr(H.field.describe()), H.dim,
                 tuple(sorted((k, tuple(sorted(v.items()))) for k, v in H.mult.items())),
                 tuple(sorted((k, tuple(sorted(v.items()))) for k, v in H.comult.items())),
                 tuple(sorted((k, tuple(sorted(v.items()))) for k, v in H.antipode.items())),
                 tuple(sorted(H.unit.items())), tuple(sorted(H.counit.items()))))


def _subspace_key(G, ech, *args, **kwargs):
    return (id(G), ech.ambient, ech.key())


def _triple_key(triple, *args, **kwargs):
    return (id(triple.G), triple.key())


# name -> canonical key of a call's input, for the `distinct` statistic
DISTINCT = {
    "hopf.verify_hopf": _algebra_key,
    "groupschemes.subgroup_from_subspace": _subspace_key,
    "quotients.build_quotient": _triple_key,
}


def _candidates(H, *args, **kwargs):
    """Size of the grouplike sweep: |F|^dim, or 2^dim sign patterns over Q."""
    size = H.field.size
    return size ** H.dim if size is not None else 2 ** H.dim + H.dim


# name -> (counter, function of the call's arguments) added before the call
COUNT_ARGS = {"hopf.grouplikes": ("candidates", _candidates)}
# name -> (counter, function of the call's result) added after the call
COUNT_RESULT = {"serialize.dump": ("bytes", len)}


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id
        self.stack = []            # open frames: [span id, time in traced callees]
        self.spans = []            # (span id, name, start, end, parent id)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.keys = defaultdict(set)
        self.counters = defaultdict(int)
        self.next_id = 1
        self.rebound = {}

    def wrap(self, name, fn):
        keyfn = DISTINCT.get(name)
        count_args = COUNT_ARGS.get(name)
        count_result = COUNT_RESULT.get(name)
        record = name not in AGGREGATE_ONLY
        stack, spans = self.stack, self.spans
        calls, incl, self_s, depth = self.calls, self.incl, self.self_s, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyfn is not None:
                self.keys[name].add(keyfn(*args, **kwargs))
            if count_args is not None:
                self.counters[f"{name}.{count_args[0]}"] += count_args[1](*args, **kwargs)
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if not depth[name]:  # outermost call of a recursion
                    incl[name] += dur
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((span_id, name, start, end, parent))
            if count_result is not None:
                self.counters[f"{name}.{count_result[0]}"] += count_result[1](result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function and rebind it wherever it is bound."""
        import schemedouble.cli  # noqa: F401  (imports every layer)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "schemedouble" or n.startswith("schemedouble.")]
        for mod_name, qual in TRACED:
            name = f"{mod_name}.{qual}"
            try:
                mod = importlib.import_module(f"schemedouble.{mod_name}")
                owner = mod
                for part in qual.split(".")[:-1]:
                    owner = getattr(owner, part)
                orig = getattr(owner, qual.split(".")[-1])
            except (ImportError, AttributeError):
                self.rebound[name] = []  # gone from the program: reported as 0
                continue
            if owner is not mod:  # a method: replace it on its class
                setattr(owner, qual.split(".")[-1], self.wrap(name, orig))
                self.rebound[name] = [f"schemedouble.{mod_name}.{qual}"]
                continue
            wrapper = self.wrap(name, orig)
            sites = []
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        sites.append(f"{m.__name__}.{attr}")
            self.rebound[name] = sites

    def report(self, code, wall_s):
        names = [f"{m}.{q}" for m, q in TRACED]
        return {
            "job": self.job_id,
            "exit": code,
            "wall_s": wall_s,
            "functions": {n: {"calls": self.calls[n], "s": self.incl[n],
                              "self_s": self.self_s[n],
                              "distinct": len(self.keys[n])} for n in names},
            "counters": dict(self.counters),
            "rebound": self.rebound,
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                       "job": self.job_id} for i, n, s, e, p in self.spans],
        }


def main(argv):
    out_path, job_id = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer(job_id)
    tracer.install()
    from schemedouble import cli
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump(tracer.report(code, wall), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
