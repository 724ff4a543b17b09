"""goodsub benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload frames-4x2 --seed 0 --seconds 40 --trace 0

or leave out ``--workload`` to run every workload, each in a fresh
process, and print all their metrics.  The last line of standard output
is the JSON result.  With ``--trace 0`` it holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run; BENCHMARK.json
gives the name and unit of each.  The program is imported from ``src/``
of the checkout that holds this script.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One closed-loop client on one thread: keep BLAS and OpenMP from
# spreading numpy calls over the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# setup_s is the median over this process and this many fresh ones, which
# are spread over the run so that they meet the machine in several states.
SETUP_PROBES = 10

# The calibration kernel runs between ops whenever this long has passed
# since its last run, so that every op has a run of it close before and
# after; it takes about 6% of a frames-4x2 run and less of the others.
CALIBRATE_EVERY_S = 0.1
# The kernel time that scaled times refer to: a round figure near its time
# on the machine of the baseline (perfbench/README.md), where it read 1.5
# to 6 ms during runs.  Any constant would do, since commits are compared
# by ratios.
CALIBRATION_REFERENCE_S = 3.0e-3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_every_workload(args)

    _import_program()
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = run_traced(wl, args)
        else:
            result = run_untraced(wl, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(workdir.parent)
    print(json.dumps(result))
    return 0


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import goodsub
    except ImportError as exc:
        sys.exit(f"cannot import goodsub from {SRC}: {exc}")
    if Path(goodsub.__file__).resolve().parent.parent != SRC:
        sys.exit(f"goodsub was imported from {goodsub.__file__}, not from {SRC}")


def _setup_probe(args):
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload]
    out = subprocess.run(
        cmd + ["--seed", str(args.seed)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def _remove_if_empty(path):
    try:
        path.rmdir()
    except OSError:
        pass


def _run_op(wl, x, tr):
    """Time one op, then inspect it.

    Returns (seconds, problems, key, counts, out, op span index).
    """
    t0 = time.perf_counter()
    try:
        with tr.span("op") as span:
            out = wl.op(x, tr)
    except Exception:
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)], None, {}, None, span
    elapsed = time.perf_counter() - t0
    try:
        problems, key, counts = wl.inspect(out)
    except Exception:
        return elapsed, [traceback.format_exc(limit=3)], None, {}, out, span
    return elapsed, problems, key, counts, out, span


class _Failures:
    """Counts failed ops and shows the first few on stderr."""

    SHOWN = 5

    def __init__(self):
        self.count = 0

    def add(self, op_index, problems):
        if not problems:
            return
        self.count += 1
        if self.count <= self.SHOWN:
            print(f"op {op_index} failed: {'; '.join(problems)}", file=sys.stderr)


def run_untraced(wl, args, setup_s):
    """Ops in a closed loop until the deadline, times scaled to reference speed.

    The machine's speed drifts by up to 2x, from second to second and over
    minutes (perfbench/README.md).  A calibration kernel, fixed work of
    the kinds the program does, slows with the machine much as the
    program does; it is timed between ops whenever CALIBRATE_EVERY_S has
    passed since its last timing, and each op's and each set-up's time is
    scaled by CALIBRATION_REFERENCE_S over the mean of the two kernel
    times around it.
    """
    from tracing import NullTracer

    null = NullTracer()
    failures = _Failures()
    # Start and length of each op, set-up and kernel run; float arrays, as
    # a list would grow RSS with the op count.
    op_starts, latencies = array("d"), array("d")
    setup_starts, setups = array("d", [_T0]), array("d", [setup_s])
    kernel_starts, kernel_times = array("d"), array("d")

    def calibrate():
        # The median of three timings, so that an interrupt in one of
        # them does not skew the ops around it.
        now = time.perf_counter()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t0)
        kernel_starts.append(now)
        kernel_times.append(statistics.median(times))

    calibrate()
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_every = args.seconds / SETUP_PROBES
    while (now := time.perf_counter()) < deadline:
        # Set-up probes and the kernel run between ops, outside every
        # op's timed region.
        if now - kernel_starts[-1] >= CALIBRATE_EVERY_S:
            calibrate()
            continue
        if len(setups) <= SETUP_PROBES and now >= start + (len(setups) - 0.5) * probe_every:
            setup_starts.append(now)
            setups.append(_setup_probe(args))
            continue
        i = len(latencies)
        op_starts.append(now)
        elapsed, problems, *_ = _run_op(wl, wl.inputs[i % len(wl.inputs)], null)
        latencies.append(elapsed)
        failures.add(i, problems)
    calibrate()
    kernel = (np.asarray(kernel_starts), np.asarray(kernel_times))
    op_scale = _reference_scale(kernel, op_starts)
    ops = np.asarray(latencies) * op_scale
    values = {
        # Ops per second of op time: the checks, probes and kernel runs
        # between ops are left out.
        "ops_per_s": len(ops) / ops.sum(),
        "op_p50_ms": 1e3 * float(np.percentile(ops, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(ops, 90)),
        "setup_s": float(np.median(np.asarray(setups) * _reference_scale(kernel, setup_starts))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed_frac = failures.count / len(latencies)
    print(f"{wl.name}: {len(latencies)} ops, failed_frac {failed_frac:.6g} (ratio)")
    print(f"as measured: op p50 {1e3 * np.median(latencies):.6g} ms,"
          f" set-up median {statistics.median(setups):.6g} s;"
          f" speed vs reference: median {np.median(op_scale):.4g},"
          f" range {op_scale.min():.4g}-{op_scale.max():.4g}")
    return _result(len(latencies), failures.count, values, SPEC["end_to_end"])


def calibration_kernel():
    """Fixed work of the kinds goodsub's ops do: small LAPACK calls, an
    interpreted loop and a numpy sweep over an array of 160 KB."""
    total = 0.0
    for _ in range(20):
        total += np.linalg.svd(_KERNEL_BLOCK, compute_uv=False)[2]
        total += np.linalg.eigvalsh(_KERNEL_BLOCK.T @ _KERNEL_BLOCK)[0]
        total += sum(i * i for i in range(100)) * 1e-9
        total += float(np.sqrt(_KERNEL_GRID * _KERNEL_GRID + total).sum()) * 1e-9
    return total


_KERNEL_BLOCK = np.arange(15.0).reshape(5, 3) / 7.0
_KERNEL_GRID = np.linspace(0.0, 1.0, 20000)


def _reference_scale(kernel, starts):
    """CALIBRATION_REFERENCE_S over the mean kernel time around each start."""
    kernel_starts, kernel_times = kernel
    after = np.searchsorted(kernel_starts, np.asarray(starts))
    before = np.maximum(after - 1, 0)
    after = np.minimum(after, len(kernel_times) - 1)
    return CALIBRATION_REFERENCE_S / (0.5 * (kernel_times[before] + kernel_times[after]))


def run_traced(wl, args):
    """Pairs of an untraced and a traced op on one input, in alternating order."""
    from tracing import NullTracer, Tracer

    tracer = Tracer()
    null = NullTracer()
    failures = _Failures()
    seconds = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < wl.min_traced_ops or time.perf_counter() < deadline:
        x = wl.inputs[i % len(wl.inputs)]
        tracer.op = i
        keys = {}
        problems = {}
        pair_counts = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            tr = tracer if traced else null
            elapsed, problems[traced], keys[traced], counts, out, span = _run_op(wl, x, tr)
            if traced:
                op_span = span
                if out is not None:
                    pair_counts.update(wl.probe(x, out, tracer))
            seconds[traced] += elapsed
            pair_counts.update(counts)
        if not (problems[False] or problems[True]) and keys[False] != keys[True]:
            problems[True] = ["traced and untraced ops gave different outputs"]
        failures.add(2 * i, problems[False])
        failures.add(2 * i + 1, problems[True])
        for name, value in pair_counts.items():
            tracer.note(op_span, name, value)
        i += 1

    values = layer_metrics(tracer, wl.min_traced_ops)
    values["trace_overhead_frac"] = seconds[True] / seconds[False] - 1.0
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    tracer.write_csv(trace_dir / f"{wl.name}-seed{args.seed}.csv")
    print(f"{wl.name}: {i} op pairs, {failures.count} failed ops")
    print_breakdown(tracer)
    return _result(2 * i, failures.count, values, SPEC["per_layer"])


def _parent_names(t):
    parent = t["parent"]
    return np.where(parent >= 0, t["name"][np.maximum(parent, 0)], None)


def _median_or_zero(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, counted_ops):
    """Every per-layer metric; layers the workload never calls read 0."""
    from workloads import CLI_COMMAND_SPANS, OP_SUMS, SPAN_COUNTS, SPAN_TIMES

    t = tracer.table()
    name, self_ns = t["name"], t["self"]
    parent_name = _parent_names(t)

    def spans(span, required_parent):
        mask = name == span
        if required_parent is not None:
            mask &= parent_name == required_parent
        return mask

    values = {}
    for metric, (span, required_parent, ns_per_unit) in SPAN_TIMES.items():
        values[metric] = _median_or_zero(self_ns[spans(span, required_parent)]) / ns_per_unit
    for metric, (span, required_parent) in SPAN_COUNTS.items():
        noted = [tracer.counts.get(j, {}) for j in np.flatnonzero(spans(span, required_parent))]
        found = [c[metric] for c in noted if metric in c]
        values[metric] = statistics.median_low(found) if found else 0
    ops = np.flatnonzero(name == "op")
    for metric in OP_SUMS:
        values[metric] = sum(
            tracer.counts.get(j, {}).get(metric, 0) for j in ops if t["op"][j] < counted_ops
        )
    accepted = sum(tracer.counts.get(j, {}).get("worstcase.accepted_steps", 0) for j in ops)
    descent_ms = self_ns[name == "worstcase.multistart_search"].sum() / 1e6
    values["worstcase.ms_per_accepted_step"] = descent_ms / accepted if accepted else 0.0
    # Time in dispatch outside every layer span: argparse and file writes.
    cli = np.isin(name, CLI_COMMAND_SPANS)
    cli_ops = np.unique(t["op"][cli])
    mask = (cli | (name == "op")) & np.isin(t["op"], cli_ops)
    per_op = np.bincount(t["op"][mask], weights=self_ns[mask])
    values["cli.self_ms"] = _median_or_zero(per_op[cli_ops]) / 1e6
    return values


def print_breakdown(tracer):
    """Self time of each layer inside ops, and the share of op time it takes."""
    t = tracer.table()
    name, parent = t["name"], t["parent"]
    root = np.arange(len(name))
    for j in range(len(name)):
        if parent[j] >= 0:
            root[j] = root[parent[j]]
    in_ops = name[root] == "op"
    op_total = t["duration"][name == "op"].sum()
    children = t["duration"][_parent_names(t) == "op"].sum()
    print(
        f"op spans {op_total / 1e6:.3f} ms = child spans {children / 1e6:.3f} ms"
        f" + op self {(op_total - children) / 1e6:.3f} ms"
    )
    for span in dict.fromkeys(name[in_ops]):
        mask = in_ops & (name == span)
        total = t["self"][mask].sum()
        print(f"  {span:28s} {mask.sum():8d} spans  self {total / 1e6:12.3f} ms  {total / op_total:7.2%}")


def _result(attempted, failed, values, spec_metrics):
    """The JSON result, with metrics in BENCHMARK.json's order and units."""
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {}
    for m in spec_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:34s} {values[m['name']]:.10g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_every_workload(args):
    """Each workload in a fresh process; prints every metric of each."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout.rstrip("\n").rpartition("\n")[0])
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
