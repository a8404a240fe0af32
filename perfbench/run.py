"""fklab benchmark: one workload per call, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fk-pauli --seed 1 --seconds 20 --trace 0

Workloads: fk-pauli, fk-prefix, scalar-paths, dense-ops (see README.md).
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` lists:
its ``end_to_end`` ones with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``. The line before it prints every figure with its unit
(``wall_s`` and ``time_to_accuracy_s`` included) and ``failed_share``; a
provenance line comes first. The full report goes to ``perfbench/out/``.
The exit code is 1 when a correctness check fails and 2 when the benchmark
cannot run at all.

This launcher uses only the standard library. The measurement runs in
fresh child processes (``measure.py``) whose environment fixes the BLAS
thread count, so that workers x BLAS threads <= nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT = 170.0
# setup_s is quoted at the machine speed at which a single-thread
# calibration takes this long (see README.md)
REFERENCE_CAL_S = 0.2


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit code 2)."""


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the fklab sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fklab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("FKLAB_SEED", "FKLAB_WORKERS"):  # CLI overrides of the config
        env.pop(var, None)
    return env


def run_child(args: list[str], env: dict) -> tuple[dict, float]:
    """Run measure.py; return its JSON line and the monotonic start time."""
    cmd = [sys.executable, str(HERE / "measure.py")] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"measurement timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"measurement exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), start


def measure_setup(common: list[str], env: dict) -> list[tuple[float, float]]:
    """(process start to first estimator call, calibration) per fresh probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        out, start = run_child(["probe"] + common, env)
        samples.append((out["ready"] - start, out["cal"]))
    return samples


def check_registry(prefix: str, passes: list[dict], path: Path) -> None:
    """Compare each part's digest with the first one this checkout recorded.

    ``prefix`` names the workload and the source digest, and the key adds a
    hash of the full config, seed included: only runs of the same inputs
    on the same code meet.
    """
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    for p in passes:
        for part in p["parts"]:
            if part["digest"] is None:
                continue
            key = f"{prefix}/{part['name']}/{part['key']}"
            if part["digest"] != known.setdefault(key, part["digest"]):
                part["errors"].append("digest differs from an earlier run")
    path.write_text(json.dumps(known, indent=0), encoding="utf-8")


def ops(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for p in passes:
        for part in p["parts"]:
            attempted += 1
            if part["errors"]:
                failed += 1
                errors.extend(f"{part['name']}: {e}" for e in part["errors"])
    return attempted, failed, errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> dict:
    """Every end-to-end figure; the ``_norm`` ones divide by calibration,
    and ``setup_s`` scales each probe by its own calibration."""
    passes = raw["passes"]
    wall = statistics.median(p["wall"] for p in passes)
    tta = statistics.median(p["tta"] for p in passes)
    cal = statistics.median(p["cal"] for p in passes)
    return {
        "wall_norm": metric(wall / cal, "ratio"),
        "tta_norm": metric(tta / cal, "ratio"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
        "setup_s": metric(statistics.median(
            t * REFERENCE_CAL_S / c for t, c in setup), "s"),
        "wall_s": metric(wall, "s"),
        "setup_raw_s": metric(statistics.median(t for t, _ in setup), "s"),
        "time_to_accuracy_s": metric(tta, "s"),
        "calibration_s": metric(cal, "s"),
    }


def per_layer(raw: dict, spec: list[dict]) -> dict:
    """The per-layer metrics; a layer the workload never reaches reads 0."""
    values = dict(raw["layers"], **raw["counts"])
    values["mc.kept_ratio"] = raw["kept_ratio"]
    values["mc.cpu_util"] = raw["cpu_util"]
    values["trace.overhead_ratio"] = raw["overhead_ratio"]
    return {m["name"]: metric(values.get(m["name"], 0), m["unit"])
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fklab" / "__init__.py").is_file():
        print(f"fklab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cores = len(os.sched_getaffinity(0))
    blas_threads = max(1, cores // workloads.WORKERS)
    env = child_env(blas_threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = HERE / "out"
    workdir = HERE / "_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    try:
        if args.trace:
            raw, _ = run_child(["trace"] + common, env)
            metrics = per_layer(raw, spec["per_layer"])
            shutil.copyfile(workdir / "spans.json", outdir / f"{tag}.spans.json")
            setup = []
        else:
            setup = measure_setup(common, env)
            raw, _ = run_child(["timed", "--seconds", str(args.seconds)]
                               + common, env)
            metrics = end_to_end(raw, setup)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    code = source_digest()
    check_registry(f"{args.workload}/{code[:16]}", raw["passes"],
                   outdir / "digests.json")
    attempted, failed, errors = ops(raw["passes"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "metrics": metrics,
        "failed_share": failed / attempted, "attempted": attempted,
        "failed": failed, "errors": errors, "setup_samples": setup,
        "passes": [{"wall": p["wall"], "tta": p["tta"], "cal": p.get("cal"),
                    "parts": [{k: part[k] for k in ("name", "wall", "digest",
                                                     "worst_stderr")}
                              for part in p["parts"]]}
                   for p in raw["passes"]],
        "missing_targets": raw.get("missing", []),
        "provenance": dict(raw["provenance"], nproc=cores,
                           mem_available_mb=mem_available_mb(),
                           git_commit=git_commit(), source_sha256=code,
                           seed=args.seed, workers=workloads.WORKERS,
                           blas_threads=blas_threads),
    }
    (outdir / f"{tag}.json").write_text(json.dumps(report, indent=1),
                                        encoding="utf-8")
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                       for k, v in metrics.items())
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"{args.workload} seed={args.seed} passes={len(raw['passes'])} "
          f"failed_share={failed / attempted:g} {summary}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {m["name"]: metrics[m["name"]]
                                  for m in listed}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
