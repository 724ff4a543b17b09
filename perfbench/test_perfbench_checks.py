"""The benchmark's output checks flag wrong answers and accept right ones."""

import json
import math

import numpy as np
import pytest

import goodsub as gs

import checks
from tracing import Tracer


def _chain(seed):
    frame = gs.haar_sample(4, 2, seed)
    report = gs.best_submatrix(frame)
    minors = gs.pluecker4x2(frame)
    system = gs.eval_system(gs.to_transformed(minors))
    factors = gs.cs_decompose(frame)
    cs_minors = gs.minors_from_cs(factors)
    return dict(
        values=frame.values,
        row_set=report.row_set,
        sigma_min=report.sigma_min,
        invariant=gs.invariant_residuals(minors),
        sphere=(system.sphere1_residual, system.sphere2_residual),
        reconstruction=factors.reconstruct(),
        minors=(abs(cs_minors[0] - abs(minors.p12)), abs(cs_minors[1] - abs(minors.p34))),
    )


def test_frame_chain_passes_on_program_output():
    assert checks.check_frame_chain(**_chain(3)) == []


def test_frame_chain_flags_wrong_row_set():
    out = _chain(3)
    others = [r for r in ((0, 1), (0, 2), (0, 3)) if r != tuple(out["row_set"])]
    out["row_set"] = others[0]
    assert any("row_set" in p for p in checks.check_frame_chain(**out))


def test_frame_chain_flags_value_below_half():
    out = _chain(3)
    out["sigma_min"] = 0.5 - 1e-6
    problems = checks.check_frame_chain(**out)
    assert any("below 1/2" in p for p in problems)


def test_reference_breaks_ties_toward_smallest_row_set():
    # Every block of the extremal frame but rows (2, 3) has sigma_min 1/2.
    rows, sigma = checks.reference_best(gs.extremal_matrix().values)
    assert rows == (0, 1) and abs(sigma - 0.5) < 1e-15


def test_search_result_passes_on_program_output():
    result = gs.multistart_search(4, 2, gs.SearchParams(restarts=1, seed=0))
    assert checks.check_search_result(result.best_matrix.values, result.best_value) == []


def test_search_result_flags_value_below_floor():
    frame = gs.haar_sample(5, 3, 0)
    problems = checks.check_search_result(frame.values, 1.0 / math.sqrt(5) - 1e-3)
    assert any("below 1/sqrt(5)" in p for p in problems)


def test_search_result_flags_non_frame():
    values = gs.haar_sample(5, 3, 0).values * 1.001
    value = checks.reference_best(values)[1]
    assert any("not a frame" in p for p in checks.check_search_result(values, value))


@pytest.fixture(scope="module")
def cli_outputs():
    report = json.dumps(
        {"checks": [{"name": n} for n in checks.CERTIFY_CHECK_NAMES], "all_passed": True}
    )
    return [0, 0, 0], report, gs.figure_eq3_data(101)


def test_cli_outputs_pass_on_program_output(cli_outputs):
    assert checks.check_cli_outputs(*cli_outputs) == []


def test_cli_outputs_flag_five_contact_rows(cli_outputs):
    codes, report, csv = cli_outputs
    lines = csv.splitlines()
    contact = next(i for i, line in enumerate(lines) if line.startswith("contact,"))
    fewer = "\n".join(lines[:contact] + lines[contact + 1 :]) + "\n"
    assert any("5 contact rows" in p for p in checks.check_cli_outputs(codes, report, fewer))


def test_cli_outputs_flag_exit_code_1(cli_outputs):
    _, report, csv = cli_outputs
    assert checks.check_cli_outputs([0, 1, 0], report, csv) == ["exit code 1"]


def test_cli_outputs_flag_failed_report_and_off_surface_row(cli_outputs):
    codes, report, csv = cli_outputs
    failed = report.replace('"all_passed": true', '"all_passed": false')
    assert checks.check_cli_outputs(codes, failed, csv) == ["certify report: all_passed is not true"]
    lines = csv.splitlines()
    middle = len(lines) // 4
    surface, x, y, z = lines[middle].split(",")
    lines[middle] = f"{surface},{x},{y},{float(z) + 1e-3!r}"
    off = "\n".join(lines) + "\n"
    assert any("equation residual" in p for p in checks.check_cli_outputs(codes, report, off))


def test_self_times_account_for_the_op_span():
    tracer = Tracer()
    with tracer.span("op") as op:
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(1000))
        with tracer.span("c") as c:
            tracer.note(c, "items", 3)
    t = tracer.table()
    assert list(t["name"]) == ["op", "a", "b", "c"]
    assert list(t["parent"]) == [-1, op, 1, op]
    assert int(t["self"].sum()) == int(t["duration"][op])
    assert np.all(t["self"] >= 0)
    assert tracer.counts == {c: {"items": 3}}
