"""Job catalog and seeded input generator for the schemedouble benchmark.

A job is one `schemedouble` CLI invocation over generated input files.  The
seed relabels the elements of every constant group by a seeded permutation of
its Cayley table (an isomorphic group with a different basis order) and draws
the parameter lambda of every B_lambda triple from F_p^x.  Connected group
specs are fixed.  The program sees only the generated JSON files.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

# -- groups -----------------------------------------------------------------


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _closure(gens):
    e = tuple(range(len(gens[0])))
    seen, frontier = {e}, [e]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = _compose(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def _is_even(p):
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return inversions % 2 == 0


# Each constant group is a list of permutations; element i of the canonical
# labeling is PERMS[name][i].
PERMS = {
    "S3": _closure([(1, 0, 2), (1, 2, 0)]),
    "A4": [p for p in itertools.permutations(range(4)) if _is_even(p)],
    "D4": _closure([(1, 2, 3, 0), (3, 2, 1, 0)]),
    "Z6": _closure([(1, 2, 3, 4, 5, 0)]),
}

# The Klein four subgroup of A4, by two of its generators.
A4_V4_GENS = [(1, 0, 3, 2), (2, 3, 0, 1)]

CONNECTED = {
    "ga2": {"ga_kernel": {"r": 2}},
    "ga3": {"ga_kernel": {"r": 3}},
    "ga4": {"ga_kernel": {"r": 4}},
}


def relabeling(name: str, seed: int):
    """perm[i] = new index of canonical element i."""
    perm = list(range(len(PERMS[name])))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def constant_spec(name: str, seed: int):
    perms = PERMS[name]
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    perm = relabeling(name, seed)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    table = [[perm[index[_compose(perms[inv[a]], perms[inv[b]])]]
              for b in range(n)] for a in range(n)]
    return {"constant": {"elements": [f"g{i}" for i in range(n)],
                         "table": table, "name": name}}


def group_spec(name: str, seed: int):
    return CONNECTED[name] if name in CONNECTED else constant_spec(name, seed)


def b_lambda(p: int, lam: int):
    """B_lambda: delta_n -> lambda^n / n! t^n on the order-p Frobenius kernel."""
    out = []
    for n in range(p):
        c = pow(lam, n, p) * pow(math.factorial(n), -1, p) % p
        if c:
            out.append({"indices": [n, n], "value": str(c)})
    return out


def _frobenius_triple(p: int, lam: int, group: str = "ga2"):
    sub = {"frobenius_sub": {"r": 1}}
    return {"group": CONNECTED[group], "K": sub, "H": sub, "B": b_lambda(p, lam)}


def _frobenius_pair(group: str, k: int, h: int):
    return {"group": CONNECTED[group], "K": {"frobenius_sub": {"r": k}},
            "H": {"frobenius_sub": {"r": h}}}


def _a4_triple(seed: int, H_is_v4: bool):
    """K = V4 in the relabeled A4, and H = V4 or the trivial subgroup."""
    perm = relabeling("A4", seed)
    index = {p: i for i, p in enumerate(PERMS["A4"])}
    v4 = {"generators": [[{"indices": [perm[index[g]]], "value": "1"}]
                         for g in A4_V4_GENS]}
    return {"group": constant_spec("A4", seed), "K": v4,
            "H": v4 if H_is_v4 else "trivial"}


# -- jobs -------------------------------------------------------------------


def field_kind(token: str) -> str:
    """'prime', 'ext' or 'q' for a CLI field token."""
    if token == "q":
        return "q"
    return "ext" if "^" in token else "prime"


class Job:
    """One CLI invocation.  `ref` names its entry in references.json."""

    def __init__(self, job_id, command, field, ref, inputs):
        self.id = job_id
        self.command = command
        self.field = field
        self.ref = ref
        self.inputs = inputs  # {file name: JSON document}

    def argv(self, workdir: Path):
        """CLI arguments, with input names resolved inside workdir and the
        output written to workdir/<id>.out.json."""
        args = [str(workdir / a) if a in self.inputs else a for a in self.command]
        if self.command[0] != "appendix":
            args += ["-o", str(self.output(workdir))]
        return args

    def output(self, workdir: Path) -> Path:
        return workdir / f"{self.id}.out.json"


class Entry:
    """A catalog entry: a job recipe whose inputs depend on the seed.

    `make(seed)` gives a quotient job's triple document; with `lam_p` set,
    `make(p, lam)` gives a B_lambda triple, lambda drawn from F_p^x.
    """

    def __init__(self, cmd, name, field, make=None, lam_p=None):
        self.cmd, self.name, self.field = cmd, name, field
        self.make, self.lam_p = make, lam_p
        self.id = f"{cmd}-{name}-{field.replace('^', '_')}"

    def lam(self, seed):
        return random.Random(f"{seed}:{self.id}").randrange(1, self.lam_p)

    def job(self, seed, lam=None):
        if self.cmd == "appendix":
            return Job(self.id, ["appendix", "--p", self.field[1:]],
                       self.field, self.id, {})
        if self.cmd == "quotient":
            fname, flag = f"{self.id}.triple.json", "--triple"
        else:
            fname, flag = f"{self.id}.group.json", "--group"
        ref = self.id
        if self.lam_p:
            lam = self.lam(seed) if lam is None else lam
            doc = self.make(self.lam_p, lam)
            ref = f"{self.id}-lambda{lam}"
        elif self.cmd == "quotient":
            doc = self.make(seed)
        else:
            doc = group_spec(self.name, seed)
        return Job(self.id, [self.cmd, flag, fname, "--field", self.field],
                   self.field, ref, {fname: doc})

    def variants(self, seed):
        """One job per reference entry: every lambda in F_p^x for B_lambda."""
        if not self.lam_p:
            return [self.job(seed)]
        return [self.job(seed, lam) for lam in range(1, self.lam_p)]


# Two workloads of jobs of at most about 3 s, so each run times seven or
# more passes: on a shared machine the CPU speed changes every few seconds,
# and a job's median over many passes steadies only if the job is short.
WORKLOADS = {
    # Hopf verification of large algebras (the doubles) and of hundreds of
    # small, mostly duplicate ones (the lattices).
    "verify": [
        Entry("double", "A4", "p5"),
        Entry("double", "D4", "p3^2"),
        Entry("double", "S3", "p7"),
        Entry("enumerate", "S3", "p7"),
        Entry("enumerate", "S3", "q"),
    ],
    # Construction of D(G), theta and quotients, with almost no verification.
    "quotient": [
        Entry("quotient", "ga4-K2-H1", "p2", lambda seed: _frobenius_pair("ga4", 2, 1)),
        Entry("quotient", "ga4-B1", "p2", lambda seed: _frobenius_triple(2, 1, "ga4")),
        Entry("quotient", "ga2", "p3", _frobenius_triple, lam_p=3),
        Entry("quotient", "ga3-K2-H1", "p2^3", lambda seed: _frobenius_pair("ga3", 2, 1)),
        Entry("quotient", "A4-V4-1", "q", lambda seed: _a4_triple(seed, False)),
        Entry("quotient", "A4-V4-V4", "p5", lambda seed: _a4_triple(seed, True)),
        Entry("appendix", "golden", "p2"),
        Entry("appendix", "golden", "p3"),
        Entry("appendix", "golden", "p5"),
    ],
}

# Catalog entries that fail at the commit the references were recorded on.
# They stay out of the timed workloads, whose jobs must all succeed, until the
# defect is fixed; `python3 perfbench/gate.py --known-defects` re-runs them.
KNOWN_DEFECTS = {
    "enumerate-D4-p3": (
        Entry("enumerate", "D4", "p3"),
        "exits 1 with 'D(K,H,B) violates Hopf axioms: antipode law' while "
        "building its quotient pairs, on every relabeling tried; it should "
        "exit 0"),
    "enumerate-Z6-p7": (
        Entry("enumerate", "Z6", "p7"),
        "exits 1 with the same antipode-law failure on most relabelings, "
        "including the natural one; which relabelings pass depends on the "
        "element order"),
}


def jobs(workload: str, seed: int):
    return [entry.job(seed) for entry in WORKLOADS[workload]]


def write_inputs(job_list, workdir: Path):
    """Write every job's input files; the bytes depend only on the seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    for job in job_list:
        for name, doc in job.inputs.items():
            (workdir / name).write_text(json.dumps(doc, sort_keys=True) + "\n")
