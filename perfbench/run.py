"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload stream-observe --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it, prefixed ``detail``,
carries the workload-specific numbers, operation counts, the output
digest and the host facts.  Exit status: 0 on success, 1 when an output
check fails, 2 on a usage error or when the checkout has no ``src/repro``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("stream-observe", "durable-decide", "service-mixed", "grid-fig7")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2014,
                        help="input seed (default: 2014, the repo's default)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced run reporting per-layer metrics")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Every run generates its own inputs: no on-disk trace cache hits.
    os.environ["REPRO_TRACE_CACHE"] = "0"
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, fleet, grid, service

    run = common.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        # Nothing has run yet but interpreter start-up and the imports.
        trace=bool(args.trace), import_s=common.cpu_s(),
    )
    handlers = {
        "stream-observe": fleet.stream_observe,
        "durable-decide": fleet.durable_decide,
        "service-mixed": service.service_mixed,
        "grid-fig7": grid.grid_fig7,
    }
    try:
        handlers[args.workload](run)
    except common.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        common.emit(run, correct=False)
        return 1
    finally:
        run.cleanup()
    common.emit(run, correct=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
