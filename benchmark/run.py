"""kanlmm benchmark: one workload in one process, as a closed loop.

    python3 benchmark/run.py --workload train-linear --seed 0 --seconds 45 --trace 0

Run from the repository root.  The untraced run (``--trace 0``) sets the
workload up at least three times and for at least a second, then
repeats its operation (the next starts when the previous one ends) until ``--seconds`` have passed, and reports the
end-to-end metrics of BENCHMARK.json.  The traced run (``--trace 1``)
sets up once, times two pairs of operations without and with spans, then
times every module's public functions on the workload's inputs in rounds
(at least two) until ``--seconds`` have passed since set-up, and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
sample counts and (traced) spans go to ``.bench_runs/``.  ``--toy``
shrinks every workload for the smoke test.  The program is imported from
``src/`` of the same checkout; without it the run fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
# One thread: BLAS and OpenMP pools are pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3         # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_OPS = 3
MIN_ROUNDS = 2
OVERHEAD_PAIRS = 2


class Tracer:
    """Spans (name, start, end, parent) kept in memory; off, it only calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "kanlmm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain trees; source_sha256 identifies them
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


class Loop:
    """Operation outcomes of one run: wall times, field errors, failures."""

    def __init__(self, wl, case, tracer):
        self.wl, self.case, self.tracer = wl, case, tracer
        self.walls: list[float] = []
        self.errors: list[float] = []
        self.attempted = 0
        self.failed = 0

    def once(self) -> float:
        """Run, time and check one operation; returns its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.run(self.case, self.tracer)
            wall = time.perf_counter() - start
            ok, err = self.wl.check(self.case, out)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        self.walls.append(wall)
        self.errors.append(err)
        self.failed += not ok
        return wall


def untraced(wl, work: Path, seed: int, seconds: float):
    tracer = Tracer(enabled=False)
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        case = wl.setup(work, seed, tracer)
        setups.append(time.perf_counter() - start)
    loop = Loop(wl, case, tracer)
    deadline = time.perf_counter() + seconds
    while loop.attempted < MIN_OPS or time.perf_counter() < deadline:
        loop.once()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(loop.walls), "s", len(loop.walls)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "field_rms": (statistics.median(loop.errors), "abs", len(loop.errors)),
    }
    samples = {"wall_s": loop.walls, "setup_s": setups, "field_rms": loop.errors}
    return loop, metrics, samples


def traced(wl, work: Path, seed: int, seconds: float):
    import layers

    tracer = Tracer(enabled=True)
    with tracer.span("setup"):
        case = wl.setup(work, seed, tracer)
    deadline = time.perf_counter() + seconds
    loop = Loop(wl, case, tracer)
    plain, spanned = [], []
    for _ in range(OVERHEAD_PAIRS):
        tracer.enabled = False
        plain.append(loop.once())
        tracer.enabled = True
        with tracer.span("op"):
            spanned.append(loop.once())
    extras = []
    while len(extras) < MIN_ROUNDS or time.perf_counter() < deadline:
        extras.append(layers.layer_round(tracer, case, first=not extras))
    overhead = statistics.median(spanned) - statistics.median(plain)
    metrics = layers.metrics(tracer, case, extras, (overhead, OVERHEAD_PAIRS))
    samples = {"op_untraced_s": plain, "op_traced_s": spanned, "rounds": len(extras)}
    return loop, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "kanlmm" / "__init__.py").is_file():
        print(f"error: kanlmm sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import kanlmm
    if Path(kanlmm.__file__).resolve().parent != SRC / "kanlmm":
        print(f"error: imported kanlmm from {kanlmm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, toy=args.toy)

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        run = traced if args.trace else untraced
        loop, metrics, samples = run(wl, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": args.workload, "toy": args.toy, "seconds": args.seconds,
        "environment": env, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "samples": samples,
    }, indent=1))
    if args.trace:
        (stem.parent / f"{stem.name}-spans.json").write_text(json.dumps(loop.tracer.spans))

    print("environment: " + json.dumps(env))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} n={count}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
