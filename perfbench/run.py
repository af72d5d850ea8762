"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload train_1d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``bnre`` is imported from its
``src/`` directory. The run repeats the workload's operation, each time on
fresh inputs made from ``--seed`` and in a fresh output directory under
``perfbench/out/``, and starts another only while it is expected to end
inside ``--seconds``. It then checks every operation's outputs against
computations made apart from the program, removes the output directories,
and prints one information line followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
operations); with ``--trace 1`` each round runs the operation once untraced
and once traced on the same inputs, requires their scientific outputs to be
byte-identical, and reports the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def process_age_s() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import bnre
    except ImportError as err:
        print(f"cannot import bnre from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(bnre.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bnre was imported from {bnre.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    import numpy
    import scipy

    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    setup_s = process_age_s()

    dirs: list[Path] = []
    checked = []          # (inputs, outcome) whose outputs get checked
    walls, cpus = [], []  # untraced operations
    traced_walls, recorders, traced_bytes = [], [], []
    attempted = failed = 0
    problems = []
    figures = []          # what each operation's checks measured

    def run_once(k: int, out_dir: Path, recorder=None):
        nonlocal attempted, failed
        inputs = workload.inputs(args.seed, k, out_dir)
        # the training tape leaves reference cycles behind; collecting them
        # here starts every operation from the same heap, as a fresh process would
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        if recorder is None:
            outcome = workload.run(inputs)
        else:
            with spans.tracing(recorder):
                outcome = workload.run(inputs)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        attempted += outcome.attempted
        failed += outcome.failed
        if recorder is None:
            walls.append(wall)
            cpus.append(cpu)
        else:
            traced_walls.append(wall)
            recorders.append(recorder)
            traced_bytes.append(dir_bytes(out_dir))
        return inputs, outcome

    try:
        window = time.perf_counter()
        rounds = []
        k = 0
        while True:
            round_start = time.perf_counter()
            out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
            dirs.append(out_dir)
            if args.trace:
                # both runs write to the same path, since report.json records it;
                # which of the two goes first alternates between rounds
                first = out_dir.with_name(out_dir.name + "-first")
                dirs.append(first)
                run_once(k, out_dir, spans.Recorder() if k % 2 else None)
                out_dir.rename(first)
                out_dir.mkdir()
                checked.append(run_once(k, out_dir, None if k % 2 else spans.Recorder()))
                a, b = workload.artifacts(first), workload.artifacts(out_dir)
                try:
                    checks.require([p.name for p in a] == [p.name for p in b],
                                   f"traced and untraced artifacts differ: {a} {b}")
                    for pa, pb in zip(a, b):
                        checks.check_same_bytes(pa.read_bytes(), pb.read_bytes(),
                                                f"{pb.name} traced against untraced")
                except (checks.CheckFailed, OSError) as err:
                    problems.append(str(err))
            else:
                checked.append(run_once(k, out_dir))
            rounds.append(time.perf_counter() - round_start)
            k += 1
            if time.perf_counter() - window + statistics.median(rounds) > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for i, (inputs, outcome) in enumerate(checked):
            try:
                figures.append(workload.check(inputs, outcome, last=i == len(checked) - 1))
            except Exception as err:  # any failure to read or verify an output
                traceback.print_exc(file=sys.stderr)
                problems.append(f"{type(err).__name__}: {err}")
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        layer = spans.per_layer(recorders, import_s, overhead, statistics.mean(traced_bytes))
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": len(walls) + len(traced_walls), "run_s": walls, "cpu_s": cpus,
        "traced_run_s": traced_walls, "problems": problems, "figures": figures,
        "machine": {
            "cpus": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
