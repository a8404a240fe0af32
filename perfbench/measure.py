"""Measurement process: runs one workload and prints its raw results.

``run.py`` starts this script in a fresh process with the BLAS thread count
fixed in its environment and ``src`` on ``PYTHONPATH``. It prints one JSON
object as the last line of its standard output. Modes:

- ``probe``: import fklab, parse every config, note the monotonic clock
  at the point where the first estimator call would start, then run one
  single-thread calibration.
- ``timed``: run passes of the workload back to back with 2 workers for
  ``--seconds``, cycling through ``workloads.ROTATIONS`` config seeds, with
  a calibration between passes.
- ``trace``: one untraced pass with 2 workers, one untraced and one traced
  pass with 1 worker, all on the first rotation; all three must give the
  same result digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


class Prepared:
    """A part made ready to call: config written and parsed."""

    def __init__(self, part: workloads.Part, workdir: Path) -> None:
        from fklab import cli

        self.part = part
        self.key = hashlib.sha256(json.dumps(
            part.spec, sort_keys=True).encode()).hexdigest()
        if part.kind == "cli":
            self.config = workdir / f"{part.name}.r{part.rotation}.json"
            self.config.write_text(json.dumps(part.spec), encoding="utf-8")
            cli.parse_config(json.loads(self.config.read_text("utf-8")))
            self.csv = self.config.with_suffix(".csv")
        else:
            self.problem = _fk_problem(part.spec)


def _matrix(pairs):
    import numpy as np

    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _fk_problem(spec: dict):
    import numpy as np
    from fklab.fkmatrix import FKProblem
    from fklab.wiener import TimeGrid

    A = tuple(_matrix(a) for a in spec["A"])
    B = _matrix(spec["B"]) if spec["B"] is not None \
        else np.zeros_like(A[0])
    return FKProblem(A, B, spec["t"], TimeGrid(spec["t"], spec["n_steps"]))


def _fmt(x: float) -> str:
    return "%.17g" % x


def _run_api(prep: Prepared, workers: int) -> tuple[bytes, list[dict]]:
    """Call the estimator; return CSV bytes and rows (mean, stderr, z)."""
    import numpy as np
    from fklab import fkmatrix
    from fklab.streams import RngStream

    spec = prep.part.spec
    rng = RngStream(spec["seed"])
    if spec["estimator"] == "check_nov_identity":
        est = fkmatrix.check_nov_identity(
            prep.problem, spec["n_paths"], rng,
            chunk_size=spec["chunk_size"], workers=workers)
        mean, err = np.asarray(est.mean), np.asarray(est.stderr)
    else:
        mean, err = fkmatrix.check_duhamel(
            prep.problem, spec["n_paths"], spec["n_quad"], rng,
            chunk_size=spec["chunk_size"], workers=workers)
    # criterion 5's convention: a zero-stderr entry must vanish to 1e-12
    z = np.where(err > 0, np.abs(mean) / np.where(err > 0, err, 1.0),
                 np.abs(mean) * 1e12)
    lines = ["quantity,component,mean_re,mean_im,stderr,z"]
    rows = []
    for index in np.ndindex(mean.shape):
        comp = "".join(str(i) for i in index)
        m, e, zz = complex(mean[index]), float(err[index]), float(z[index])
        lines.append(",".join([prep.part.name, comp, _fmt(m.real),
                               _fmt(m.imag), _fmt(e), _fmt(zz)]))
        rows.append({"quantity": prep.part.name, "mean_re": m.real,
                     "mean_im": m.imag, "stderr": e, "z": zz,
                     "pass": zz <= workloads.PREFIX_ZMAX})
    return ("\r\n".join(lines) + "\r\n").encode(), rows


def _run_cli(prep: Prepared, workers: int) -> tuple[int, bytes, list[dict]]:
    from fklab import cli

    if prep.csv.exists():
        prep.csv.unlink()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(prep.config), "--out",
                         str(prep.csv.parent), "--workers", str(workers)])
    data = prep.csv.read_bytes() if prep.csv.exists() else b""
    rows = []
    # the component column may itself hold commas, so split from both ends:
    # experiment, quantity, component..., mean_re, mean_im, stderr,
    # target_re, target_im, z, pass
    for line in data.decode("utf-8").splitlines()[1:]:
        fields = line.split(",")
        rows.append({"quantity": fields[1], "mean_re": float(fields[-7]),
                     "mean_im": float(fields[-6]),
                     "stderr": float(fields[-5]),
                     "pass": fields[-1] == "true"})
    return code, data, rows


# rows that aggregate other rows' errors; the worst *entry* stderr skips them
AGGREGATE_ROWS = {"frobenius_error", "magnitude_gap"}


def run_part(prep: Prepared, workers: int) -> dict:
    """One operation: time it, digest its result and check it."""
    errors = []
    start = time.perf_counter()
    try:
        if prep.part.kind == "cli":
            code, data, rows = _run_cli(prep, workers)
        else:
            code, (data, rows) = 0, _run_api(prep, workers)
    except Exception:  # an operation that raises counts as failed
        wall = time.perf_counter() - start
        return {"name": prep.part.name, "key": prep.key, "wall": wall,
                "digest": None,
                "errors": ["exception: " + traceback.format_exc(limit=3)],
                "worst_stderr": math.nan, "values": []}
    wall = time.perf_counter() - start
    if code != 0:
        errors.append(f"exit code {code}")
    if not rows:
        errors.append("no result rows")
    for r in rows:
        if not all(math.isfinite(r[k]) for k in ("mean_re", "mean_im",
                                                  "stderr")):
            errors.append(f"non-finite result in {r['quantity']}")
        if not r["pass"]:
            errors.append(f"check failed: {r['quantity']}")
        if "roundtrip" in prep.part.tags and r["quantity"] == \
                "roundtrip_error" and not r["mean_re"] <= workloads.ROUNDTRIP_TOL:
            errors.append("roundtrip error above tolerance")
    entry = [r["stderr"] for r in rows if r["quantity"] not in AGGREGATE_ROWS]
    return {"name": prep.part.name, "key": prep.key, "wall": wall,
            "digest": hashlib.sha256(data).hexdigest(), "errors": errors,
            "worst_stderr": max(entry) if entry else math.nan,
            "values": [r["mean_re"] for r in rows]}


def run_pass(prepared: list[Prepared], workers: int) -> dict:
    """All parts once, back to back, plus the workload-level checks."""
    start = time.perf_counter()
    results = [run_part(p, workers) for p in prepared]
    wall = time.perf_counter() - start
    trotter = [(p.part, r) for p, r in zip(prepared, results)
               if "trotter" in p.part.tags]
    errs = [r["values"][0] for _, r in trotter if r["values"]]
    if len(errs) == len(trotter) and any(b >= a for a, b in zip(errs, errs[1:])):
        for _, r in trotter:
            r["errors"].append("trotter error not decreasing in n")
    tta = 0.0
    for p, r in zip(prepared, results):
        if p.part.monte_carlo and math.isfinite(r["worst_stderr"]):
            tta += r["wall"] * (r["worst_stderr"] / workloads.TTA_STDERR) ** 2
    return {"wall": wall, "tta": tta, "parts": results}


def check_digests(passes: list[dict]) -> None:
    """Mark every part whose digest differs from the first of its config."""
    first = {}
    for p in passes:
        for r in p["parts"]:
            if r["digest"] != first.setdefault(r["key"], r["digest"]):
                r["errors"].append("digest differs from the first run")


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def prepare(workload: str, seed: int, workdir: Path, tiny: bool = False,
            rotation: int = 0) -> list[Prepared]:
    import fklab

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(fklab.__file__).resolve().parent.parent != src:
        raise SystemExit(f"fklab imported from {fklab.__file__}, not {src}")
    return [Prepared(p, workdir)
            for p in workloads.parts(workload, seed, tiny, rotation)]


def _calibration_work(_: int) -> float:
    import numpy as np

    gen = np.random.Generator(np.random.Philox(20240601))
    x = gen.standard_normal(1 << 20)
    a = (x[: 1 << 18] + 1j * x[1 << 18: 1 << 19]).reshape(-1, 2, 2) * 0.5
    b = a @ (a @ a)
    e = np.cosh(np.sqrt(x[: 1 << 19] + 0j)).sum()
    small = a[:512]
    acc = np.broadcast_to(np.eye(2, dtype=complex), small.shape).copy()
    for _ in range(192):
        acc = small @ acc
        acc *= 0.5
    dense = (x[: 1 << 18] + 1j * x[1 << 18: 1 << 19]).reshape(512, 512)
    spec = np.fft.ifft(np.fft.fft(dense @ dense, axis=-1), axis=0)
    return float(b[0, 0, 0].real + e.real + acc.real.sum() + spec[0, 0].real)


def calibrate(threads: int) -> float:
    """Wall time of a fixed numpy and Python workload that uses no fklab code.

    It mixes the kinds of work the workloads do: Philox normals, stacked
    2x2 complex products, elementwise transcendentals, a Python loop of
    small products, a dense complex product and 2-d FFTs. It runs at once
    in as many threads as the workload keeps busy, so it meets the same
    cores and the same interpreter lock as a pass. A pass divided by the
    calibrations around it cancels changes in the machine's speed that last
    longer than a pass.
    """
    if threads == 1:
        start = time.perf_counter()
        _calibration_work(0)
        return time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        list(pool.map(_calibration_work, range(threads)))
        return time.perf_counter() - start


def timed(rotations: list[list[Prepared]], seconds: float,
          cal_threads: int) -> dict:
    """Passes back to back for ``seconds``, each bracketed by calibrations.

    Pass i runs the configs of rotation i mod ROTATIONS. A pass's ``cal`` is
    the mean of the calibrations just before and just after it, which
    tracks a change of machine speed during the pass.
    """
    passes = []
    cpu0, start = _cpu(), time.perf_counter()
    cal = calibrate(cal_threads)
    while not passes or time.perf_counter() - start < seconds:
        result = run_pass(rotations[len(passes) % len(rotations)],
                          workloads.WORKERS)
        after = calibrate(cal_threads)
        result["cal"] = 0.5 * (cal + after)
        passes.append(result)
        cal = after
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    check_digests(passes)
    return {"passes": passes, "cpu_util": cpu / wall}


def traced(prepared: list[Prepared], spans_path: Path) -> dict:
    from tracer import Tracer, layer_times

    cpu0, start = _cpu(), time.perf_counter()
    untraced2 = run_pass(prepared, workloads.WORKERS)
    cpu_util = (_cpu() - cpu0) / (time.perf_counter() - start)
    untraced1 = run_pass(prepared, 1)
    tracer = Tracer()
    with tracer:
        traced1 = run_pass(prepared, 1)
    passes = [untraced2, untraced1, traced1]
    check_digests(passes)
    spans = tracer.spans
    spans_path.write_text(json.dumps({"spans": tracer.span_records(),
                                      "counts": tracer.counts,
                                      "missing": tracer.missing}),
                          encoding="utf-8")
    layers = layer_times(spans)
    kept = tracer.counts.get("mc.kept_paths", 0)
    return {"passes": passes, "cpu_util": cpu_util, "layers": layers,
            "counts": tracer.counts, "missing": tracer.missing,
            "kept_ratio": kept / tracer.requested_paths
            if tracer.requested_paths else 1.0,
            "overhead_ratio": traced1["wall"] / untraced1["wall"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "timed", "trace"))
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    rotations = [prepare(args.workload, args.seed, workdir, rotation=r)
                 for r in range(workloads.ROTATIONS)]
    if args.mode == "probe":
        out = {"ready": time.monotonic(), "cal": calibrate(1)}
    elif args.mode == "timed":
        out = timed(rotations, args.seconds,
                    workloads.BUSY_WORKERS[args.workload])
    else:
        out = traced(rotations[0], workdir / "spans.json")
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode != "probe":
        out["provenance"] = provenance()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
