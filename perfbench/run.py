#!/usr/bin/env python3
"""End-to-end benchmark of the verfploeter simulator.

    python3 perfbench/run.py --workload campaign|serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the measuring program (vp_perfbench,
sources next to this file) on top of ../src in Release, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its outputs, prints a readable summary, and prints as
its last line one JSON object: correct, attempted, failed and metrics
(end-to-end metrics, or per-layer metrics with --trace 1). Exits non-zero
without a result when the program cannot be built or run. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    """Configures once and builds vp_perfbench; returns its path."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        raise stats.BenchError(f"no sources under {HERE.parent / 'src'}")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise stats.BenchError(f"build step failed: {' '.join(step)}")
    return bdir / "vp_perfbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=stats.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    binary = build(bdir)
    out_dir = bdir / "runs"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir)]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise stats.BenchError(f"vp_perfbench exited {done.returncode}")
    raw, trace_path = stats.parse_program_output(done.stdout)

    if args.trace:
        if trace_path is None:
            raise stats.BenchError("traced run wrote no trace file")
        with open(trace_path) as f:
            spans = stats.parse_spans(json.load(f))
        metrics = stats.per_layer_metrics(raw, spans, args.workload)
        os.remove(trace_path)
    else:
        metrics = stats.end_to_end_metrics(raw)

    correct, failing = stats.correctness(raw, args.workload)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for line in stats.summary_lines(raw):
        print(line)
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    counters = raw["counters"]
    print(f"attempted {raw['attempted']}  failed {raw['failed']}  "
          f"alias artifacts {counters.get('campaign.alias_artifacts', 0):g} "
          f"of {counters.get('campaign.mapped_blocks', 0):g} mapped blocks "
          f"(known, counted apart; see README.md)")
    print("checks: " + ("all passed" if correct
                        else "FAILED " + ", ".join(failing)))
    print(stats.result_line(raw, metrics, args.workload))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (stats.BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
