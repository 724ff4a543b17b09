"""The benchmark's workloads, driven through goodsub's public API.

Each workload builds its inputs from the workload seed, runs one op at a
time (a closed loop with one client) and inspects each op's output
outside the timed region.  ``op(x, tracer)`` runs one op; with a
``NullTracer`` every span is a no-op, so a traced op takes the same path
as an untraced one.  ``inspect(out)`` returns the problems found (empty
when the output is correct), a key that a traced and an untraced op on
the same input must share, and the counts the traced run reports.
``probe(x, out, tracer)`` makes the traced run's calls that lie outside
the op and returns the counts they give.  The tables at the end map span
names to per-layer metrics.
"""

import contextlib
import hashlib
from dataclasses import dataclass

import goodsub as gs
from goodsub import certify as gs_certify
from goodsub import cli as gs_cli
from goodsub import serialize as gs_serialize
from goodsub import worstcase as gs_worstcase

import checks

# Op seeds of workload seed s are s * SEED_STRIDE + i, so the inputs of two
# workload seeds never overlap within a run.
SEED_STRIDE = 10**7


class Frames4x2:
    """One seeded Haar 4x2 frame through the whole analysis chain."""

    name = "frames-4x2"
    min_traced_ops = 1

    def __init__(self, seed, workdir):
        self.inputs = range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE)

    def op(self, x, tr):
        with tr.span("stiefel.haar_sample"):
            frame = gs.haar_sample(4, 2, x)
        with tr.span("stiefel.best_submatrix"):
            report = gs.best_submatrix(frame)
        with tr.span("pluecker.chain"):
            minors = gs.pluecker4x2(frame)
            invariant = gs.invariant_residuals(minors)
            system = gs.eval_system(gs.to_transformed(minors))
        with tr.span("csdecomp.chain"):
            factors = gs.cs_decompose(frame)
            reconstruction = factors.reconstruct()
            cs_minors = gs.minors_from_cs(factors)
        return frame, report, minors, invariant, system, reconstruction, cs_minors

    def inspect(self, out):
        frame, report, minors, invariant, system, reconstruction, cs_minors = out
        problems = checks.check_frame_chain(
            frame.values,
            report.row_set,
            report.sigma_min,
            invariant,
            (system.sphere1_residual, system.sphere2_residual),
            reconstruction,
            (abs(cs_minors[0] - abs(minors.p12)), abs(cs_minors[1] - abs(minors.p34))),
        )
        key = (report.row_set, report.sigma_min)
        return problems, key, {"stiefel.blocks_per_op": len(report.all_values)}

    def probe(self, x, out, tr):
        _objective_probe(out[0], tr)
        return {}


def _objective_probe(frame, tr):
    # One public objective() call at the workload's shape: the block-sigma
    # kernel over all C(n, k) blocks, timed outside the op.
    with tr.span("stiefel.objective"):
        gs.objective(frame)


@dataclass
class _SearchOut:
    frame: gs.StiefelMatrix
    value: float
    counts: dict


class Search5x3:
    """One restart of the multistart worst-case search at (5, 3)."""

    name = "search-5x3"
    # worstcase.accepted_steps and worstcase.iterations sum over this many
    # restarts, so the traced run always completes them.
    min_traced_ops = 16

    def __init__(self, seed, workdir):
        self.inputs = range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE)

    def op(self, x, tr):
        # Restart x of a multistart run.  Its start frame is timed through
        # the haar_sample that multistart_search calls; the rest of the
        # multistart span is the descent.
        with _wrapped(tr, (gs_worstcase, "haar_sample", "stiefel.haar_sample", None)):
            with tr.span("worstcase.multistart_search"):
                result = gs.multistart_search(5, 3, gs.SearchParams(restarts=1, seed=x))
        counts = {"worstcase.iterations": result.iterations_used[0]}
        return _SearchOut(result.best_matrix, result.best_value, counts)

    def inspect(self, out):
        problems = checks.check_search_result(out.frame.values, out.value)
        counts = dict(out.counts)
        counts["stiefel.blocks_per_op"] = len(gs.best_submatrix(out.frame).all_values)
        return problems, out.value, counts

    def probe(self, x, out, tr):
        _objective_probe(out.frame, tr)
        # The same descent again through local_descent, whose public
        # callback counts the accepted steps.
        accepted = []
        start = gs.haar_sample(5, 3, x)
        params = gs.SearchParams(restarts=1, seed=x)
        gs.local_descent(start, params, callback=lambda it, val: accepted.append(it))
        return {"worstcase.accepted_steps": len(accepted)}


_CERTIFY_CHECKS = (
    "extremal_matrix",
    "ellipse_region",
    "transform_bound",
    "boundary_lemma",
    "implications",
    "feasible_point",
)


# The subcommands of one certify-cli op, in order, and the file each writes.
_CLI_OUTPUTS = {
    "verify-extremal": "extremal.json",
    "certify": "certify.json",
    "figure-eq3": "surfaces.csv",
}


class CertifyCli:
    """verify-extremal, certify and figure-eq3 through cli.dispatch."""

    name = "certify-cli"
    min_traced_ops = 1

    def __init__(self, seed, workdir):
        # The certificate and the figure are deterministic grids: the seed
        # selects nothing here.
        outputs = {command: workdir / name for command, name in _CLI_OUTPUTS.items()}
        self.report_path = outputs["certify"]
        self.csv_path = outputs["figure-eq3"]
        self.inputs = [tuple((c, [c, "--output", str(path)]) for c, path in outputs.items())]

    def op(self, x, tr):
        codes = []
        with _wrapped(tr, *_CLI_LAYERS):
            for command, argv in x:
                with tr.span(f"cli.{command}"):
                    codes.append(gs.dispatch(argv))
        return codes

    def inspect(self, out):
        # Each op must write its own files: read them once, then remove them.
        report = self.report_path.read_text(encoding="utf-8")
        csv = self.csv_path.read_text(encoding="utf-8")
        self.report_path.unlink()
        self.csv_path.unlink()
        problems = checks.check_cli_outputs(out, report, csv)
        key = hashlib.sha256((report + csv).encode()).hexdigest()
        return problems, key, {}

    def probe(self, x, out, tr):
        return {}


# The layer entry points that dispatch reaches: (module, attribute, span,
# (count name, count of the result) or None).
_CLI_LAYERS = (
    *(
        (
            gs_certify,
            f"check_{check}",
            f"certify.{check}",
            (f"certify.{check}.samples", lambda r: r.samples_used),
        )
        for check in _CERTIFY_CHECKS
    ),
    (gs_cli, "figure_eq3_data", "cli.figure_eq3_data", None),
    (gs_serialize, "dumps", "serialize.dumps", ("serialize.bytes_out", len)),
)


@contextlib.contextmanager
def _wrapped(tr, *layers):
    """Wrap module attributes in spans for the duration of one traced op.

    Untraced ops call the program unchanged.
    """
    if not tr.enabled:
        yield
        return
    replaced = []

    def wrap(module, attr, span_name, count):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with tr.span(span_name) as span:
                result = original(*args, **kwargs)
            if count is not None:
                tr.note(span, count[0], count[1](result))
            return result

        replaced.append((module, attr, original))
        setattr(module, attr, traced)

    try:
        for layer in layers:
            wrap(*layer)
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


WORKLOADS = {w.name: w for w in (Frames4x2, Search5x3, CertifyCli)}

# Per-layer times: metric -> (span, required parent span or None, ns per unit).
SPAN_TIMES = {
    "stiefel.haar_sample_us": ("stiefel.haar_sample", None, 1e3),
    "stiefel.best_submatrix_us": ("stiefel.best_submatrix", None, 1e3),
    "stiefel.objective_us": ("stiefel.objective", None, 1e3),
    "worstcase.descent_ms": ("worstcase.multistart_search", None, 1e6),
    "pluecker.chain_us": ("pluecker.chain", None, 1e3),
    "csdecomp.chain_us": ("csdecomp.chain", None, 1e3),
    **{f"certify.{c}_ms": (f"certify.{c}", None, 1e6) for c in _CERTIFY_CHECKS},
    "cli.figure_eq3_ms": ("cli.figure_eq3_data", None, 1e6),
    "serialize.dumps_ms": ("serialize.dumps", "cli.certify", 1e6),
}
# Per-layer counts: metric -> (span carrying the count, required parent).
SPAN_COUNTS = {
    "stiefel.blocks_per_op": ("op", None),
    **{
        f"certify.{c}.samples": (f"certify.{c}", None)
        for c in ("ellipse_region", "transform_bound", "boundary_lemma", "implications")
    },
    "serialize.bytes_out": ("serialize.dumps", "cli.certify"),
}
# Counts summed over the first min_traced_ops ops, so that they repeat exactly.
OP_SUMS = ("worstcase.accepted_steps", "worstcase.iterations")
CLI_COMMAND_SPANS = tuple(f"cli.{command}" for command in _CLI_OUTPUTS)
