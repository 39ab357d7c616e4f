"""One workload in a fresh process: time run_grid, or trace it by layer.

Started by ``run.py`` with BLAS threads pinned to 1 and ``src`` on the
path; prints one JSON object as its last line of standard output.

Untraced (``--trace 0``): one warm-up call on instance 0, then timed calls
on instances 0, 1, 2, ... until ``--seconds`` are used up (at least three).
The warm-up and the timed instance-0 call must write identical CSV bytes.

Traced (``--trace 1``): a fixed batch of instances, so counts compare
across commits. One untraced pass and two passes with spans over the
batch; times are the mean of the two traced passes, and every count must
repeat exactly between them. A last pass with tracemalloc over instance 0
gives the allocation peak. Every CSV must be byte-identical in all passes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from relconf.core import load_csv
from relconf.dgp import gen_small
from relconf.runner import RunManifest, run_grid

import checks
import workloads
from tracing import Tracer

MIN_TIMED_CALLS = 3


class Session:
    """Runs instances of one workload in a private work directory."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.similarities = workloads.WORKLOADS[workload]["similarities"]
        self.reference = checks.load_reference(workload) if seed == 0 else None
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, dict] = {}
        self.nondeterministic: list[int] = []

    def call(self, index: int) -> float:
        """Generate, run and check one instance; returns run_grid's wall time."""
        inst = workloads.prepare(self.workload, self.seed, index, self.workdir)
        manifest = RunManifest(**inst.kwargs)
        t0 = perf_counter()
        try:
            written = run_grid(manifest)
        except Exception:  # a failing call counts all its cells as failed
            dt = perf_counter() - t0
            print(f"instance {index}: run_grid raised\n{traceback.format_exc()}", file=sys.stderr)
            self.attempted += inst.cells
            self.failed += inst.cells
            return dt
        dt = perf_counter() - t0
        self.attempted += inst.cells
        self.failed += self._check(inst, manifest, written)
        digests = checks.csv_digests(written)
        if self.digests.setdefault(index, digests) != digests:
            self.nondeterministic.append(index)
        shutil.rmtree(self.workdir / workloads.OUTPUT_DIR, ignore_errors=True)
        return dt

    def _check(self, inst, manifest, written) -> int:
        if not checks.structure_ok(written, self.similarities, inst.cells):
            print(f"instance {inst.index}: output structure check failed", file=sys.stderr)
            return inst.cells
        reference = None
        if self.reference is not None and inst.index < len(self.reference["instances"]):
            reference = self.reference["instances"][inst.index]["intervals"]
        step = checks.grid_step(inst.y_range, manifest.grid_points, manifest.grid_expansion)
        bad = checks.bad_cells(checks.read_intervals(written), reference, step)
        for cell in sorted(bad):
            print(f"instance {inst.index}: cell {cell} failed its check", file=sys.stderr)
        return min(len(bad), inst.cells)

    def reference_bytes(self) -> tuple[int, int] | None:
        """(instances that wrote exactly the reference bytes, instances compared)."""
        if self.reference is None:
            return None
        ref = self.reference["instances"]
        compared = [i for i in self.digests if i < len(ref)]
        same = sum(ref[i]["digests"] == self.digests[i] for i in compared)
        return same, len(compared)


def environment(workload: str, seed: int, workdir: Path) -> dict:
    """numpy, its BLAS build, and the largest (n, n, p) float64 kernel temporary."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inst = workloads.prepare(workload, seed, 0, workdir)
    if inst.kwargs["suite"] == "small":
        n, p = gen_small(inst.kwargs["seed"]).dataset.x.shape
    else:
        n, p = load_csv(workdir / workloads.TRAIN_CSV, head_column="y").x.shape
    info = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}
    if "kernel" in inst.kwargs.get("regressors", ["kernel"]):
        info["kernel_nnp_temp_bytes"] = (n + 1) * (n + 1) * p * 8
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(session: Session, seconds: float) -> dict:
    session.call(0)  # warm-up: lazy imports, first-touch pages
    times = []
    start = perf_counter()
    index = 0
    while True:
        times.append(session.call(index))
        index += 1
        elapsed = perf_counter() - start
        if len(times) >= MIN_TIMED_CALLS and elapsed + sum(times) / len(times) > seconds:
            break
    grid_s = sum(times) / len(times)
    cells = workloads.WORKLOADS[session.workload]["cells"]
    return {
        "grid_calls": len(times),
        "metrics": {
            "grid_s": (grid_s, "s"),
            "intervals_per_s": (len(checks.PATHS) * cells / grid_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def run_traced(session: Session) -> dict:
    batch = range(workloads.WORKLOADS[session.workload]["trace_instances"])

    def traced(instances, track_alloc=False):
        tracer = Tracer(track_alloc=track_alloc)
        tracer.install()
        try:
            seconds = sum(session.call(i) for i in instances)
        finally:
            tracer.uninstall()
        return tracer, seconds

    session.call(0)  # warm-up
    untraced = sum(session.call(i) for i in batch)
    first, first_s = traced(batch)
    second, second_s = traced(batch)
    counts_repeat = first.counts() == second.counts()
    if not counts_repeat:
        print(f"trace counts differ: {first.counts()} vs {second.counts()}", file=sys.stderr)
    # tracemalloc slows every Python allocation several-fold, so the
    # allocation pass covers instance 0 only and its times are not used
    allocs, _ = traced([0], track_alloc=True)

    m1 = first.metrics(first_s, untraced, len(batch))
    m2 = second.metrics(second_s, untraced, len(batch))
    metrics = {
        k: (v if u == "count" else (v + m2[k][0]) / 2, u) for k, (v, u) in m1.items()
    }
    metrics["conformal.peak_alloc_mb"] = (allocs.peak_alloc_bytes / 2**20, "MB")
    return {"grid_calls": len(batch), "metrics": metrics, "counts_repeat": counts_repeat}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)  # instance paths are relative to it
    session = Session(args.workload, args.seed, args.workdir)
    if args.trace:
        result = run_traced(session)
    else:
        result = run_untraced(session, args.seconds)
    first = session.digests.get(0, {})
    result.update(
        attempted=session.attempted,
        failed=session.failed,
        deterministic=not session.nondeterministic,
        reference_bytes=session.reference_bytes(),
        environment=environment(args.workload, args.seed, args.workdir),
        digests_instance0=first,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    )
    result.setdefault("counts_repeat", True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
