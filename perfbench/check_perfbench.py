"""Tests of the benchmark itself: seeded inputs, the gate and the tracer.

    python3 -m pytest perfbench/check_perfbench.py

The file name keeps these tests out of the project's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import proc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ALL_ENTRIES = [e for entries in workloads.WORKLOADS.values() for e in entries]


def _write_all(seed, workdir):
    job_list = [e.job(seed) for e in ALL_ENTRIES]
    workloads.write_inputs(job_list, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _write_all(11, tmp_path / "a") == _write_all(11, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(workloads.PERMS))
def test_seeds_relabel_isomorphic_groups(name):
    """Different seeds give different element orders of the same group: the
    seed's permutation is an isomorphism onto the canonical table."""
    specs = [workloads.constant_spec(name, seed)["constant"] for seed in (1, 2)]
    assert specs[0]["table"] != specs[1]["table"]
    perms = workloads.PERMS[name]
    index = {p: i for i, p in enumerate(perms)}
    for seed, spec in zip((1, 2), specs):
        perm = workloads.relabeling(name, seed)
        assert len(spec["table"]) == len(perms)
        for a, pa in enumerate(perms):
            for b, pb in enumerate(perms):
                ab = index[workloads._compose(pa, pb)]
                assert spec["table"][perm[a]][perm[b]] == perm[ab]


def test_lambda_draws_are_seeded():
    for entry in (e for e in ALL_ENTRIES if e.lam_p):
        draws = [entry.lam(seed) for seed in range(20)]
        assert all(1 <= lam < entry.lam_p for lam in draws)
        assert len(set(draws)) > 1
        assert draws == [entry.lam(seed) for seed in range(20)]


def _group_specs(seed):
    """Every group spec the catalog generates, with a field it is built over."""
    out = []
    for entry in ALL_ENTRIES + [e for e, _ in workloads.KNOWN_DEFECTS.values()]:
        for job in entry.variants(seed):
            for doc in job.inputs.values():
                out.append((doc.get("group", doc), job.field))
    return out


def test_generated_tables_are_accepted_by_build(tmp_path):
    seen = set()
    for i, (spec, field) in enumerate(_group_specs(5)):
        key = (json.dumps(spec, sort_keys=True), field)
        if key in seen:
            continue
        seen.add(key)
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(spec))
        result = proc.run(["build", "--group", str(path), "--field", field,
                           "-o", str(tmp_path / f"g{i}.out.json")], tmp_path / f"log{i}", 60)
        assert result.code == 0, (spec, field, result.stderr)


@pytest.mark.parametrize("entry_id", [
    "double-S3-p7", "double-D4-p3_2", "enumerate-S3-q", "quotient-A4-V4-V4-p5"])
def test_other_seeds_give_the_reference_invariants(entry_id, tmp_path):
    entry = next(e for e in ALL_ENTRIES if e.id == entry_id)
    refs = gate.load_references()
    for seed in (1, 2):
        job = entry.job(seed)
        workloads.write_inputs([job], tmp_path)
        result = proc.run(job.argv(tmp_path), tmp_path / job.id, 60)
        assert gate.passes(job, tmp_path, result, refs), (seed, result.stderr)


def test_references_cover_every_catalog_entry_and_lambda():
    refs = gate.load_references()
    for entry in ALL_ENTRIES:
        for job in entry.variants(0):
            assert job.ref in refs, job.ref


_CPROFILE = """
import cProfile, importlib, json, pstats, sys
sys.path.insert(0, sys.argv[1])
import tracer
from schemedouble import cli
prof = cProfile.Profile()
prof.enable()
cli.main(sys.argv[3:])
prof.disable()
stats = pstats.Stats(prof).stats
counts = {}
for mod_name, qual in tracer.TRACED:
    obj = importlib.import_module("schemedouble." + mod_name)
    for part in qual.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        continue
    code = obj.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    counts[mod_name + "." + qual] = stats[key][1] if key in stats else 0
json.dump(counts, open(sys.argv[2], "w"))
"""


@pytest.fixture(scope="module")
def traced_s3(tmp_path_factory):
    """enumerate S3/GF(7) untraced, traced, and under cProfile."""
    work = tmp_path_factory.mktemp("trace")
    job = next(e for e in ALL_ENTRIES if e.id == "enumerate-S3-p7").job(0)
    workloads.write_inputs([job], work)
    argv = job.argv(work)
    out = job.output(work)
    plain = proc.run(argv, work / "plain", 120)
    plain_bytes = out.read_bytes()
    out.unlink()
    trace_path = work / "trace.json"
    traced = proc.run([str(trace_path), job.id, "--"] + argv, work / "traced", 120,
                      script=Path(tracer.__file__))
    traced_bytes = out.read_bytes()
    counts_path = work / "cprofile.json"
    subprocess.run([sys.executable, "-c", _CPROFILE, str(Path(tracer.__file__).parent),
                    str(counts_path)] + argv, env=proc.env(), check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    return {"plain": plain, "traced": traced, "plain_bytes": plain_bytes,
            "traced_bytes": traced_bytes,
            "report": json.loads(trace_path.read_text()),
            "cprofile": json.loads(counts_path.read_text())}


def test_traced_calls_equal_cprofile_counts(traced_s3):
    functions = traced_s3["report"]["functions"]
    for name, count in traced_s3["cprofile"].items():
        assert functions[name]["calls"] == count, name
    assert functions["hopf.verify_hopf"]["calls"] > 0


def test_traced_output_bytes_equal_untraced(traced_s3):
    assert traced_s3["plain"].code == traced_s3["traced"].code == 0
    assert traced_s3["traced_bytes"] == traced_s3["plain_bytes"]


def test_spans_nest_inside_their_parents(traced_s3):
    spans = {s["id"]: s for s in traced_s3["report"]["spans"]}
    assert spans
    for s in spans.values():
        assert s["job"] == "enumerate-S3-p7" and s["start"] <= s["end"]
        parent = spans.get(s["parent"])
        if parent is not None:
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_every_wrapped_name_is_rebound_where_imported(traced_s3):
    sites = traced_s3["report"]["rebound"]["hopf.verify_hopf"]
    assert all(traced_s3["report"]["rebound"].values())
    for mod in ("cli", "groupschemes", "quotients", "hopf"):
        assert f"schemedouble.{mod}.verify_hopf" in sites


def test_benchmark_metrics_are_all_reported():
    spec = json.loads((proc.ROOT / "BENCHMARK.json").read_text())
    traced_names = {f"{m}.{q}" for m, q in tracer.TRACED}
    for metric in spec["per_layer"]:
        fn, _, stat = metric["name"].rpartition(".")
        assert (fn in traced_names and stat in ("calls", "s", "self_s", "distinct")) \
            or metric["name"] in ("hopf.grouplikes.candidates", "serialize.dump.bytes",
                                  "fields.prime_s", "fields.ext_s", "fields.q_s",
                                  "trace.overhead_ratio"), metric["name"]


def test_run_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(proc.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(proc.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
