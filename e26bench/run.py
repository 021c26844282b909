"""E26: time whole requests end to end, and split them by layer when traced.

Run from the root of a checkout::

    python3 e26bench/run.py --workload telescoping --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the workload's measured round once untraced and once
with spans around every layer's public functions, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_START = _process_age()


def since_process_start() -> float:
    return _AGE_AT_START + time.perf_counter() - _START


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("telescoping", "composition", "serving"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e26: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    # One BLAS thread: two cores are shared by the walk, the pool workers
    # and the server, and BLAS threads would only add scheduling noise.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    # The program's defaults, whatever the caller's environment says.
    for name in ("REPRO_KERNELS", "REPRO_AUTOTUNE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from e26bench import common

    if args.workload == "telescoping":
        from e26bench import telescoping as workload
    elif args.workload == "composition":
        from e26bench import composition as workload
    else:
        from e26bench import serving as workload

    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), since_process_start)
    finally:
        common.stop_resource_tracker()
        common.reap_children()
    outcome.report_checks()
    for name, value in outcome.notes.items():
        print(f"{args.workload} {name}: {value:.6g}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in listed:
        if metric["name"] not in outcome.metrics:
            print(f"e26: metric {metric['name']} was not measured", file=sys.stderr)
            return 3
        metrics[metric["name"]] = {
            "value": float(outcome.metrics[metric["name"]]),
            "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
