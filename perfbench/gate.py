"""Correctness gate: basis-independent invariants of each job's output,
compared with the committed references.json.

    python3 perfbench/gate.py --record         # rewrite references.json
    python3 perfbench/gate.py --known-defects  # re-run the excluded jobs

A job passes when its exit code and its invariants equal the reference:

- double: dim, per-check `ok` of the hopf, quasitriangular and ribbon reports,
  `triangular`, `factorizable`;
- enumerate: node count, the multiset of (|K|, |H|, trivial_B, fp_dimension,
  flags), edge count;
- quotient: dim, fp_dimension, per-check `ok` of the reports,
  `theta_kernel_matches_ideal`;
- appendix: exit 0 and the CLI's own "diff empty" line (it diffs the
  committed golden file itself).

None of these depend on the element order of a constant group, so one
reference per entry, and per lambda of a B_lambda entry, serves every seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import proc
import workloads

REFERENCES = Path(__file__).resolve().parent / "references.json"
RECORD_SEED = 0


def _report_oks(reports):
    return {name: [[c["name"], c["ok"]] for c in rep["checks"]]
            for name, rep in sorted(reports.items())}


def invariants(job, workdir: Path, result):
    """The job's basis-independent invariants, or None without output."""
    cmd = job.command[0]
    if cmd == "appendix":
        return {"diff_empty": "reproduction matches, diff empty" in result.stdout}
    try:
        data = json.loads(job.output(workdir).read_text())
    except (OSError, ValueError):
        return None
    if cmd == "double":
        return {"dim": data["double"]["dim"],
                "reports": _report_oks(data["reports"]),
                "triangular": data["triangular"],
                "factorizable": data["factorizable"]}
    if cmd == "enumerate":
        nodes = sorted(json.dumps([n["order_K"], n["order_H"], n["trivial_B"],
                                   n["fp_dimension"], n["flags"]], sort_keys=True)
                       for n in data["nodes"])
        return {"count": data["count"], "nodes": nodes, "edges": len(data["edges"])}
    if cmd == "quotient":
        return {"dim": data["dim"], "fp_dimension": data["fp_dimension"],
                "reports": _report_oks(data["reports"]),
                "theta_kernel_matches_ideal": data.get("theta_kernel_matches_ideal")}
    raise ValueError(f"no invariants for {cmd}")


def observed(job, workdir: Path, result):
    return {"exit": result.code, "invariants": invariants(job, workdir, result)}


def load_references():
    return json.loads(REFERENCES.read_text())


def passes(job, workdir: Path, result, references) -> bool:
    return observed(job, workdir, result) == references.get(job.ref)


def _run(job, workdir: Path):
    workloads.write_inputs([job], workdir)
    return proc.run(job.argv(workdir), workdir / job.id)


def record(workdir: Path):
    """Run every catalog entry (every lambda of the B_lambda entries) once and
    write what it produced as the reference."""
    refs = {}
    for entries in workloads.WORKLOADS.values():
        for entry in entries:
            for job in entry.variants(RECORD_SEED):
                result = _run(job, workdir)
                refs[job.ref] = observed(job, workdir, result)
                print(f"{job.ref}: exit {result.code} in {result.wall_s:.2f} s",
                      file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def known_defects(workdir: Path) -> int:
    """Re-run the entries kept out of the workloads; 0 once all exit 0."""
    still = 0
    for key, (entry, why) in workloads.KNOWN_DEFECTS.items():
        result = _run(entry.job(RECORD_SEED), workdir)
        still += result.code != 0
        print(f"{key}: exit {result.code} ({why})\n  {result.stderr.strip()}")
    return 1 if still else 0


def main(argv):
    if argv not in (["--record"], ["--known-defects"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workdir = proc.BUILD / "gate"
    try:
        if argv == ["--record"]:
            record(workdir)
            return 0
        return known_defects(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
