"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload search-5x3 --seeds 0-9 [--sets 2] [--trace 0] [--output FILE]

Each run is one fresh ``run.py`` process.  For every metric the summary
gives the median, the first and third quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--sets N`` every seed is run
N times in a row, one run for each set, so the sets meet the machine in
the same states; the summary then also gives how far each set's median
lies from the first set's, as a share of the first.  ``--output`` writes,
for each workload, a list of the sets' runs (with the lines each printed
before its result) and a list of their summaries as JSON, together with
the machine and the versions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *log, last = proc.stdout.strip().splitlines()
    return {**json.loads(last), "log": log}


def summarise(runs, spec_metrics):
    bounds = {m["name"]: m.get("bound") for m in spec_metrics}
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_share": spread, "bound": bound}
    return summary


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as 0-9")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1, help="alternating sets of runs")
    parser.add_argument("--output")
    args = parser.parse_args()
    spec_metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    report = {"environment": machine(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        sets = [[] for _ in range(args.sets)]
        for seed in parse_seeds(args.seeds):
            for number, runs in enumerate(sets, 1):
                result = run_once(workload, seed, args.seconds, args.trace)
                runs.append({"seed": seed, **result})
                print(f"{workload} set {number} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                ), flush=True)
        summaries = [summarise(runs, spec_metrics) for runs in sets]
        report["workloads"][workload] = {"runs": sets, "summary": summaries}
        for number, summary in enumerate(summaries, 1):
            for name, s in summary.items():
                first = summaries[0][name]["median"]
                drift = (s["median"] - first) / first if first else None
                print(
                    f"  {workload:12s} set {number} {name:34s} median {s['median']:.6g}"
                    f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']}"
                    f"  median vs set 1 {drift}  bound {s['bound']}",
                    flush=True,
                )
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
