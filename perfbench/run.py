"""Run one EchoImage benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload speaker-closed --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run
with ``--trace 1``.  End-to-end times are scaled to a nominal host
speed (see ``hostspeed.py``).  Lines before it record the environment,
the load, the input-generation time, which is outside every metric,
and the host's slowness with the times as measured.  The
exit code is non-zero when an output fails the correctness gate, and
when the program under test (``src/``) is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

# One BLAS thread per Python thread, set before numpy loads.  OpenBLAS's
# own pool busy-waits and serialises calls from concurrent threads; on a
# 2-vCPU VM that made fleet-open's p50 latency double in about one run
# in four (nproc serving workers plus the BLAS pool contend for 2 cores).
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def blas_record() -> dict:
    """BLAS vendor, version and thread count of the loaded numpy."""
    import numpy as np

    record: dict = {"vendor": None, "version": None, "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        record["vendor"], record["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libraries = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
    except OSError:
        libraries = set()
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                record["threads"] = int(getter())
                return record
    return record


def environment_record() -> dict:
    import numpy as np
    import scipy

    from repro.obs.envinfo import environment_fingerprint

    return {
        "nproc": os.cpu_count(),
        "blas": blas_record(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": environment_fingerprint().get("git_sha"),
        "python": sys.version.split()[0],
    }


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="test-size inputs (few users, few operations, one set-up)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (HERE.parent / "src" / "repro").is_dir():
        print(f"no program to measure: {HERE.parent / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2

    from layers import PER_LAYER
    from workloads import END_TO_END, Sizes, run_workload

    print("# env " + json.dumps(environment_record(), sort_keys=True), flush=True)
    sizes = Sizes.smoke() if args.smoke else Sizes()
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes
    )
    print(f"# load: {report['load']}", flush=True)
    print(f"# inputs generated in {report['generated_s']:.3f} s", flush=True)
    print("# host slowness and times as measured, before dividing by it: "
          + json.dumps(report["host"], sort_keys=True), flush=True)
    for problem in report["problems"]:
        print(f"# INCORRECT: {problem}", flush=True)
    values = report["per_layer"] if args.trace else report["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in units.items()
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
