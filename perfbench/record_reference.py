"""Record the seed-0 reference intervals and CSV digests of every workload.

    python3 perfbench/record_reference.py [workload ...]

Writes ``reference/<workload>.json`` for the first ``reference_instances``
instances of seed 0. Run it only at a commit whose outputs are the
intended reference; ``checks.py`` compares later runs against these files.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, workdir: Path) -> dict:
    from relconf.runner import RunManifest, run_grid

    instances = []
    for index in range(workloads.WORKLOADS[workload]["reference_instances"]):
        inst = workloads.prepare(workload, 0, index, workdir)
        written = run_grid(RunManifest(**inst.kwargs))
        instances.append({
            "subseed": inst.kwargs["seed"],
            "digests": checks.csv_digests(written),
            "intervals": checks.read_intervals(written),
        })
        shutil.rmtree(workdir / workloads.OUTPUT_DIR)
    return {"workload": workload, "seed": 0, "instances": instances}


def dump(ref: dict) -> str:
    """JSON with one line per instance."""
    head = {k: v for k, v in ref.items() if k != "instances"}
    lines = [json.dumps(i, sort_keys=True, separators=(",", ":")) for i in ref["instances"]]
    opening = json.dumps(head, sort_keys=True)[:-1] + ', "instances": [\n'
    return opening + ",\n".join(lines) + "\n]}\n"


def main(names) -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            os.chdir(tmp)  # the same relative input paths as the benchmark
            ref = record(workload, Path(tmp))
            os.chdir(HERE.parent)
        path = checks.REFERENCE_DIR / f"{workload}.json"
        path.write_text(dump(ref))
        print(f"{path}: {len(ref['instances'])} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
