"""Benchmark of relconf.runner.run_grid: one workload per call.

    python3 perfbench/run.py --workload small_grid --seed 0 --seconds 30 --trace 0

Runs from any directory; the repository root is the parent of this file's
directory, and the program is imported from its ``src``. The workload runs
in a fresh worker process with BLAS threads pinned to 1; ``setup_s`` is the
fastest of several fresh interpreters' times to import relconf and build the
workload's RunManifest, probed before and after the worker. One client runs
one grid at a time
(closed loop). Human-readable lines go first; the last line of standard
output is the JSON result. See README.md next to this file for the
workloads, the metrics and what the benchmark cannot see.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 175.0
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (pure Python, no numpy)

PROBE = """
import sys
sys.path.insert(0, {here!r})
import relconf
from relconf.runner import RunManifest
import workloads
RunManifest(**workloads.manifest_kwargs({workload!r}, {seed!r}, 0))
print("ready", flush=True)
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def setup_times(workload: str, seed: int, env: dict, probes: int) -> list[float]:
    """Times from a fresh interpreter to relconf imported and manifest built."""
    code = PROBE.format(here=str(HERE), workload=workload, seed=seed)
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            dt = perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed to import relconf")
        times.append(dt)
    return times


def environment() -> dict:
    """Machine and source version; the worker adds numpy and its BLAS build."""

    def output_of(cmd) -> str:
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return res.stdout.strip() if res.returncode == 0 and res.stdout.strip() else "unknown"

    in_git = (ROOT / ".git").exists()
    return {
        "git_sha": output_of(["git", "rev-parse", "HEAD"]) if in_git else "unknown",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": output_of(["getconf", "LEVEL3_CACHE_SIZE"]),
        "blas_threads": 1,
    }


def run_worker(args, env: dict, deadline: float) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = perf_counter()
    ap = argparse.ArgumentParser(description="Benchmark relconf.runner.run_grid.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        ap.error("--seed must lie in [0, 2**40)")
    if not (SRC / "relconf" / "__init__.py").is_file():
        print(f"error: no relconf package under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    # Set-up probes run before and after the worker, and the fastest is
    # reported: on a shared host the same probe reads in two modes about 40%
    # apart, and the slow mode can last for seconds, so a median of a few
    # probes lands in either mode from run to run. The fastest of probes
    # taken half a minute apart is the set-up cost without contention.
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = setup_times(args.workload, args.seed, env, probes - probes // 2)
        info = environment()
        out = run_worker(args, env, start + TIME_LIMIT_S)
        setup += setup_times(args.workload, args.seed, env, probes // 2)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if setup:
        metrics = {"setup_s": {"value": min(setup), "unit": "s"}, **metrics}
    correct = out["failed"] == 0 and out["deterministic"] and out["counts_repeat"]
    error_rate = out["failed"] / out["attempted"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"grid_calls={out['grid_calls']}")
    print("environment " + json.dumps({**info, **out["environment"]}, sort_keys=True))
    print("csv_sha256_instance0 " + json.dumps(out["digests_instance0"], sort_keys=True))
    if out["reference_bytes"] is not None:
        same, compared = out["reference_bytes"]
        print(f"instances byte-identical to the seed-0 reference: {same} of {compared}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {error_rate:.6g} ratio ({out['failed']} of {out['attempted']} cells)")
    print(f"deterministic = {out['deterministic']}  counts_repeat = {out['counts_repeat']}")
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
