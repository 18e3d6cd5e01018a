"""Golden reproduction of the Frobenius-kernel tower computations: the
projection, cleaving map and its convolution inverse, the retraction and its
inverse, the cocycle and co-cocycle of the order-p quotient of the height-two
kernel, the one-parameter family of Hopf maps B_lambda, and the induced
R-matrices on both the height-one center and the height-two quotient.

Everything is emitted as canonical JSON so runs are diffable bit for bit.
"""

from __future__ import annotations

from .doubles import (
    is_factorizable,
    is_triangular,
    verify_quasitriangular,
    verify_ribbon,
)
from .fields import factorial_unit, make_field
from .groupschemes import full_subgroup, ga_frobenius_subgroup, ga_kernel
from .hopf import LinMap, is_hopf_morphism
from .quotients import build_quotient, kept_triple
from .serialize import SCHEMA_VERSION, linmap_to_json, tensor_to_json


def b_lambda(H_sub, K_sub, lam) -> LinMap:
    """B_lambda: delta_n -> lambda^n / n! t^n between order-p Frobenius
    kernels (as subgroup schemes with their canonical bases)."""
    src = H_sub.own.group_algebra
    tgt = K_sub.own.coordinate_algebra
    F = src.field
    p = F.char
    mat = {}
    for n in range(p):
        _, inv = factorial_unit(n, F)
        c = F.mul(F.pow(lam, n), inv)
        if c != F.zero():
            mat[n] = {n: c}
    return LinMap(src, tgt, mat)


def height_one_quotients(p: int):
    """The quotient pairs (G, G, B_lambda) on the order-p kernel, whose
    R-matrices live on the dual kernel."""
    F = make_field("prime", p=p)
    G = ga_kernel(1, F)
    full = full_subgroup(G)
    out = []
    for lam in range(p):
        B = b_lambda(full, full, F.from_int(lam))
        qp = build_quotient(kept_triple(G, full, full, B))
        out.append((lam, qp))
    return G, out


def height_two_quotients(p: int):
    """The quotient pairs (Ga_1, Ga_1, B_lambda) inside the height-two
    kernel, carrying the nontrivial co-cocycle."""
    F = make_field("prime", p=p)
    G = ga_kernel(2, F)
    A = ga_frobenius_subgroup(G, 1)
    out = []
    for lam in range(p):
        B = b_lambda(A, A, F.from_int(lam))
        qp = build_quotient(kept_triple(G, A, A, B))
        out.append((lam, qp))
    return G, A, out


def appendix_report(p: int) -> dict:
    """All section-by-section golden values for one prime, exact."""
    F = make_field("prime", p=p)
    G, A, quots2 = height_two_quotients(p)
    sec, cleaving = A.section, A.cleaving

    report = {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "pi": linmap_to_json(F, cleaving.quotient.pi),
        "gamma": linmap_to_json(F, cleaving.gamma),
        "gamma_inv": linmap_to_json(F, cleaving.gamma_inv),
        "eta": linmap_to_json(F, cleaving.eta),
        "eta_inv": linmap_to_json(F, cleaving.eta_inv),
        "mu": linmap_to_json(F, sec.mu),
    }

    lam0_qp = quots2[0][1]
    sigma_entries = {}
    for (r, s), vec in lam0_qp.sigma.items():
        for i, c in vec.items():
            sigma_entries[(r, s, i)] = c
    # sigma is trivial when sigma(x, y) = eps(x) eps(y) 1 throughout
    Q = lam0_qp.quotient.hopf
    OK = lam0_qp.triple.K.own.coordinate_algebra
    trivial = True
    for r in range(Q.dim):
        for s in range(Q.dim):
            expect = {}
            e = F.mul(Q.counit.get(r, F.zero()), Q.counit.get(s, F.zero()))
            if e != F.zero():
                expect = {i: F.mul(e, c) for i, c in OK.unit.items()}
            if lam0_qp.sigma.get((r, s), {}) != expect:
                trivial = False
    report["sigma_trivial"] = trivial

    per_lambda = []
    for lam, qp in quots2:
        tau_json = []
        for r in range(Q.dim):
            tau_json.append(tensor_to_json(F, qp.tau[r]))
        ok, _ = is_hopf_morphism(qp.triple.B)
        qt_rep = verify_quasitriangular(qp.qt)
        rib_rep = verify_ribbon(qp.qt)
        per_lambda.append({
            "lambda": lam,
            "b_is_hopf_morphism": ok,
            "tau": tau_json,
            "rz2_R": tensor_to_json(F, qp.qt.R),
            "rz2_V": tensor_to_json(F, qp.qt.V),
            "rz2_quasitriangular": qt_rep.ok,
            "rz2_ribbon": rib_rep.ok,
            "rz2_triangular": is_triangular(qp.qt),
            "rz2_factorizable": is_factorizable(qp.qt),
        })
    report["height_two"] = per_lambda

    _, quots1 = height_one_quotients(p)
    rz1 = []
    for lam, qp in quots1:
        qt_rep = verify_quasitriangular(qp.qt)
        rib_rep = verify_ribbon(qp.qt)
        rz1.append({
            "lambda": lam,
            "R": tensor_to_json(F, qp.qt.R),
            "V": tensor_to_json(F, qp.qt.V),
            "quasitriangular": qt_rep.ok,
            "ribbon": rib_rep.ok,
            "triangular": is_triangular(qp.qt),
            "factorizable": is_factorizable(qp.qt),
        })
    report["height_one"] = rz1
    return report
