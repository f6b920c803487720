"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload search_hot --seed 1 --seconds 10 --trace 0

``--workload all`` runs search_hot, panel_cold and ingest_live in turn
(each ending in its own result line) and fails if any check failed.

``--trace 0`` measures the end-to-end metrics with plain servers;
``--trace 1`` runs the workload once plain and once against servers
started through ``perfbench/launcher.py`` and reports the per-layer
metrics, a per-layer self-time table and the tracing overhead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def _line(name: str, value: float, unit: str, detail: str) -> str:
    return f"  {name:<42} {value:>14.6g} {unit:<6} {detail}"


def run(args) -> int:
    from perfbench import metrics as m
    from perfbench.procs import Workspace
    from perfbench.workloads import SPEC, CheckFailed, Runner

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        flush=True,
    )
    windows = SPEC["workloads"][args.workload]["open"]["windows"]
    late_ms = SPEC["late_ms"]
    with Workspace() as ws:
        runner = Runner(ws, args.workload, args.seed, args.seconds)
        try:
            if not args.trace:
                plain, setup_times, built = runner.run_plain(SPEC["setup_repeats"])
                passes = [plain]
            else:
                plain, setup_times, built = runner.run_plain(1)
                traced = runner.run_traced(built)
                passes = [plain, traced]
        except CheckFailed as exc:
            runner.problems.append(str(exc))
            passes = []
        if passes and not args.trace:
            e2e = m.end_to_end(setup_times, plain)
            extra = m.reported(plain, windows)
            tail = m.windowed(plain.reads_open, windows)
            p50s, rates = m.slice_p50s(plain), m.slice_rates(plain.closed)
            detail = {
                "read_p50_ms": (
                    f"n={e2e['read_p50_ms'][2]}; median of {len(p50s)} slice medians "
                    f"(lower quartile {statistics.quantiles(p50s, n=4)[0]:.4g})"
                ),
                "read_qps": (
                    f"n={e2e['read_qps'][2]}; upper quartile of {len(rates)} slice "
                    f"rates (median {statistics.median(rates):.5g})"
                ),
                "e2e.read_tail_ms": (
                    f"n={tail['n']}; median over {tail['windows']} windows of {tail['window_n']} "
                    f"of each window's p{tail['tail_q']:g}"
                ),
            }
            print("end-to-end (gated):")
            for name, (value, unit, n) in e2e.items():
                print(_line(name, value, unit, detail.get(name, f"n={n}")))
            print("end-to-end (reported, not gated):")
            for name, (value, unit, n) in extra.items():
                if n:
                    print(_line(name, value, unit, detail.get(name, f"n={n}")))
            late_p99, late_share = m.lateness(m.open_loop(plain), late_ms)
            print(_line("bench.gen_late_p99_ms", late_p99, "ms", ""))
            print(_line("bench.late_share", late_share, "ratio", f"> {late_ms} ms"))
            if late_share > SPEC["late_share_bound"]:
                print(
                    f"FLAG: generator lateness: {late_share:.1%} of open-loop "
                    f"sends were over {late_ms} ms late (bound "
                    f"{SPEC['late_share_bound']:.0%}); latencies are suspect",
                    file=sys.stderr,
                )
            result_metrics = {
                name: {"value": value, "unit": unit} for name, (value, unit, _n) in e2e.items()
            }
        elif passes:
            from perfbench import tracing

            layers = m.per_layer(built, plain, traced, late_ms, windows)
            print("per-layer self time (traced pass, server process):")
            table = tracing.summarize(traced.spans)
            table.update({
                f"follower:{k}": v
                for k, v in tracing.summarize(traced.follower_spans).items()
            })
            for layer, row in sorted(table.items()):
                print(
                    f"  {layer:<36} calls={int(row['calls']):>7} "
                    f"self={row['self_s'] * 1e3:>10.3f} ms "
                    f"mean_self={row['self_s'] / row['calls'] * 1e6:>10.2f} us"
                )
            print("per-layer metrics:")
            for name, (value, unit) in layers.items():
                print(_line(name, value, unit, ""))
            OUT_DIR.mkdir(exist_ok=True)
            for role in ("server", "follower"):
                src = ws.path(f"spans-{role}-traced.json")
                if src.exists():
                    dst = OUT_DIR / f"{args.workload}-seed{args.seed}-{role}-spans.json"
                    shutil.copyfile(src, dst)
                    print(f"span dump: {dst.relative_to(ROOT)}")
            result_metrics = {
                name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()
            }
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not runner.problems
    if not passes:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="one workload of perfbench/spec.json, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no SHOAL sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    signal.signal(signal.SIGTERM, _interrupt)
    if args.workload == "all":
        codes = [run(argparse.Namespace(**{**vars(args), "workload": w})) for w in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
