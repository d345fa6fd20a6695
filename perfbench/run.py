"""oomscene benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 50 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment and the
sample counts (and, when traced, the spans), goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread, set before numpy loads: the load is one client, and a
# second BLAS thread makes every BLAS call wait for whichever CPU the host
# serves last (a soft-paper train took 23-29 s instead of 9-10 s while another
# process ran on the second of two CPUs).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def git_commit(repo: Path) -> str:
    """HEAD's commit id read from the .git directory, or "unknown"."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(REPO),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = REPO / "src"
    if not (source / "oomscene").is_dir():
        print(f"error: no oomscene package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), out_dir)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": record["environment"]}))
    counts = {k: len(v) for k, v in result["samples"].items()}
    print(f"samples: {json.dumps(counts)}")
    print(f"also: {json.dumps(result['extra'])} "
          f"({result['failed']} of {result['attempted']} attempts failed)")
    for message in result["errors"]:
        print(f"failed: {message}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
