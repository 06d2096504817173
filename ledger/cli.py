"""Command line of the ledger: ``run`` one workload, ``compare`` two result sets."""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from ledger import compare, harness
from ledger.workloads import WORKLOADS


def _print_result(result: dict) -> None:
    meta = result["metadata"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"R={result['R']} N={result['N']} scale={result['scale']}  "
        f"pinned={str(meta['pinned']).lower()} affinity={meta['affinity']} "
        f"nproc={meta['nproc']}"
    )
    print(
        f"python {meta['python']}  numpy {meta['numpy']}  "
        f"kernel backend {meta['kernel_backend']}  commit {meta['git_commit']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")


def _run(args: argparse.Namespace) -> int:
    if args.traced or args.trace:
        result = harness.trace(args.workload, args.seed, args.scale)
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, args.scale)
    _print_result(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(result) + "\n")
    # The last line is the machine-readable result.
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload and print its metrics")
    run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", type=float, default=harness.FULL_SECONDS,
        help="timed seconds the run is sized for; scales the number of rounds "
        f"(never below {harness.MIN_ROUNDS})",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = the traced run (per-layer metrics)")
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink documents and N (smoke tests only)")
    run.add_argument("--out", help="append the full result, one JSON object per line")
    run.set_defaults(handler=_run)

    cmp_parser = commands.add_parser(
        "compare", help="apply the bounds to two result files"
    )
    cmp_parser.add_argument("before")
    cmp_parser.add_argument("after")
    cmp_parser.set_defaults(handler=lambda a: compare.report(a.before, a.after))

    args = parser.parse_args(argv)
    return args.handler(args)
