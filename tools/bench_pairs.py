"""Run the benchmark in alternating parent/change pairs and write BENCH_*.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --pairs fk-pauli=2901-2910 \\
        --pairs fk-prefix=2911-2915 --out BENCH_29.json \\
        --claim fk-pauli:wall_norm --title "..."

Each side is exported with ``git archive`` into a temporary directory:
``--parent`` (default ``HEAD``) and ``--change`` (default: the staged tree,
``git write-tree``). Every run is ``python3 perfbench/run.py --workload
<w> --seed <s> --seconds 20``, the run length of every benchmark report,
from the root of one export, one run at a time. Pair i runs both sides at the i-th seed of its workload; the parent
goes first in even pairs and the change in odd ones.

The output holds, per workload, every run and a summary of each metric:
median and quartiles per side (``statistics.quantiles``, exclusive) and
the number of pairs in which the change is better, all metrics being
lower-is-better. ``digests`` compares each part's result digest pass by
pass at the same seed. With ``--claim WORKLOAD:METRIC`` it states whether
the change is better in at least 90% of the pairs and its median beats
the parent's by more than the parent's interquartile range. An existing
``--out`` file keeps its other keys, and the workloads run here replace
its entries for them. Only the standard library is used; nothing under
``perfbench/`` is written in this checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_norm", "tta_norm", "peak_rss_mb", "setup_s", "wall_s")
SIDES = ("parent", "change")
SECONDS = 20


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(tree: str, dest: Path) -> None:
    """The files of ``tree`` (a commit or tree id) under ``dest``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             tree))) as tar:
        tar.extractall(dest, filter="data")


def seeds(spec: str) -> list[int]:
    """'2901-2910' or '1,5,9'."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def run(root: Path, workload: str, seed: int) -> tuple[dict, dict, dict]:
    """One benchmark run from ``root``: its metrics, the digests of each
    part pass by pass, and the provenance."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{root.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((root / "perfbench" / "out"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    out = {"seed": seed, "correct": line["correct"],
           "attempted": line["attempted"], "failed": line["failed"]}
    for name in METRICS:
        out[name] = round(report["metrics"][name]["value"], 4)
    out["passes"] = len(report["passes"])
    digests = {}
    for p in report["passes"]:
        for part in p["parts"]:
            digests.setdefault(part["name"], []).append(part["digest"])
    return out, digests, report["provenance"]


def stats(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(values)}


def summary(runs: dict) -> dict:
    out = {}
    for name in METRICS:
        pairs = list(zip(*(runs[side] for side in SIDES)))
        out[name] = {side: stats([r[name] for r in runs[side]])
                     for side in SIDES}
        out[name]["change_better_pairs"] = sum(c[name] < p[name]
                                               for p, c in pairs)
        out[name]["pairs"] = len(pairs)
    return out


def claim_result(s: dict) -> str:
    parent, change = s["parent"], s["change"]
    gap = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    met = s["change_better_pairs"] >= 0.9 * s["pairs"] and gap > iqr
    return (f"{'met' if met else 'not met'}: change better in "
            f"{s['change_better_pairs']}/{s['pairs']} pairs; median "
            f"{parent['median']} -> {change['median']} "
            f"({100 * -gap / parent['median']:+.1f}%), gap {gap:.4f} against "
            f"the parent's interquartile range {iqr:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", action="append", required=True,
                    metavar="WORKLOAD=SEEDS",
                    help="a workload and its seeds, '2901-2910' or '1,5'")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=None,
                    help="commit or tree (default: the staged tree)")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--title")
    args = ap.parse_args(argv)

    plan = [(w, seeds(s)) for w, s in (p.split("=", 1) for p in args.pairs)]
    trees = {"parent": git("rev-parse", args.parent).decode().strip(),
             "change": (git("rev-parse", args.change) if args.change
                        else git("write-tree")).decode().strip()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        roots = {side: tmp / side for side in SIDES}
        for side in SIDES:
            export(trees[side], roots[side])
        rounds, digests = doc.setdefault("rounds", {}), {}
        provenance = None
        for workload, seed_list in plan:
            runs = {side: [] for side in SIDES}
            parts = {}
            for i, seed in enumerate(seed_list):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {}
                for side in order:
                    r, d, provenance = run(roots[side], workload, seed)
                    r = {"seed": seed, "first": order[0], **r}
                    runs[side].append(r)
                    got[side] = d
                    print(f"{workload} seed {seed} {side}: wall_norm "
                          f"{r['wall_norm']} correct {r['correct']}",
                          file=sys.stderr, flush=True)
                for name, ds in got["parent"].items():
                    cd = got["change"].get(name, [])
                    n = min(len(ds), len(cd))
                    c = parts.setdefault(name, {"seeds": 0,
                                                "passes_compared": 0,
                                                "identical": 0})
                    c["seeds"] += 1
                    c["passes_compared"] += n
                    c["identical"] += sum(a == b for a, b in zip(ds, cd))
            rounds[workload] = {"summary": summary(runs), "runs": runs}
            digests[workload] = parts
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc.setdefault("digests", {}).update(digests)
    if args.title:
        doc["title"] = args.title
    doc["command"] = ("python3 perfbench/run.py --workload <w> --seed <s> "
                      f"--seconds {SECONDS}")
    doc["method"] = (
        "Written by tools/bench_pairs.py. Each command ran from the root of "
        "a git archive export of the parent and of the change, one run at "
        "a time; pairs alternate which side runs first ('first' in each "
        "run). Every run made is listed. 'digests' compares each part's "
        "result digest pass by pass, parent against change, at the same "
        "seed (pass i of a seed runs the same config on both sides).")
    doc["parent_commit"] = trees["parent"][:7]
    doc["change_tree"] = trees["change"][:7]
    doc["machine"] = {"python": platform.python_version(),
                      "numpy": provenance.get("numpy"),
                      "nproc": provenance.get("nproc"),
                      "workers": provenance.get("workers")}
    if args.claim:
        workload, name = args.claim.split(":")
        doc["claim"] = f"{workload} {name} falls"
        doc["claim_result"] = claim_result(
            doc["rounds"][workload]["summary"][name])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
