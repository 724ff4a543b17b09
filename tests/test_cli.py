"""
CLI dispatch, exit codes, output files, and the figure data generator.

Ground truth: exit code contract (0 success, 1 failed check or floor
violation, 2 usage/input errors), JSON payload fields, and direct
re-evaluation of every emitted figure point in the consistency equation.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import goodsub.cli
from goodsub import worstcase
from goodsub import (
    best_submatrix,
    cs_decompose,
    dispatch,
    dumps,
    extremal_matrix,
    figure_eq3_data,
    format_float,
    haar_sample,
    pluecker4x2,
    save_matrix,
)
from goodsub.pluecker import CONTACT_TOL, _eq3_root

THIRD_PI = math.pi / 3.0


@pytest.fixture
def extremal_file(tmp_path):
    path = tmp_path / "extremal.mat"
    save_matrix(path, extremal_matrix().values)
    return str(path)


class TestDispatch:
    def test_verify_extremal_exit_zero(self, capsys):
        assert dispatch(["verify-extremal"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_help_exit_zero(self):
        assert dispatch(["--help"]) == 0

    def test_back_to_back_dispatches_keep_no_options(self, capsys, tmp_path):
        # dispatch reuses one parser per process: an option given to one
        # dispatch does not carry into the next, and --help still exits 0.
        out = tmp_path / "verify.json"
        assert dispatch(["verify-extremal", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert dispatch(["verify-extremal"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())
        assert dispatch(["--help"]) == 0
        assert dispatch(["certify", "--help"]) == 0
        assert dispatch(["figure-eq3", "--resolution", "3"]) == 0
        assert dispatch(["search", "--n", "3", "--k", "1", "--restarts", "1"]) == 0
        capsys.readouterr()
        assert dispatch(["search", "--n", "3"]) == 2
        assert dispatch(["figure-eq3"]) == 0
        assert len(_rows(capsys.readouterr().out)) == len(_rows(figure_eq3_data(101)))

    def test_build_parser_returns_fresh_parser(self):
        assert goodsub.cli.build_parser() is not goodsub.cli.build_parser()

    def test_no_command_exit_two(self):
        assert dispatch([]) == 2

    def test_unknown_command_exit_two(self):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_flag_exit_two(self):
        assert dispatch(["search", "--n", "4"]) == 2

    def test_negative_seed_exit_two(self, capsys):
        # Refused with the field's name, before any restart starts.
        argv = ["search", "--n", "4", "--k", "2", "--restarts", "1", "--seed", "-1"]
        assert dispatch(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_missing_input_file_exit_two(self, capsys):
        assert dispatch(["pluecker", "--input", "/nonexistent/path.mat"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_matrix_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("not a matrix\n")
        assert dispatch(["pluecker", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_orthonormal_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("4 2\n1 0\n0 1\n1 0\n0 1\n")
        assert dispatch(["pluecker", "--input", str(bad)]) == 2
        assert "orthonormal" in capsys.readouterr().err

    def test_wrong_shape_exit_two(self, tmp_path, capsys):
        path = tmp_path / "id3.mat"
        save_matrix(path, np.eye(3)[:, :2])
        assert dispatch(["pluecker", "--input", str(path)]) == 2
        assert "4x2" in capsys.readouterr().err


    def test_cs_wrong_shape_exit_two(self, tmp_path, capsys):
        path = tmp_path / "id5.mat"
        save_matrix(path, np.eye(5)[:, :2])
        assert dispatch(["cs", "--input", str(path)]) == 2
        assert "4x2" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # python -m goodsub runs main(), whose sys.exit carries the code.
        src = str(Path(goodsub.cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "goodsub", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )

        ok = run("verify-extremal")
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["passed"] is True
        assert run("pluecker", "--input", "missing.mat").returncode == 2


class TestSubcommands:
    @pytest.mark.parametrize(
        "command, function",
        [("pluecker", pluecker4x2), ("cs", cs_decompose), ("best-submatrix", best_submatrix)],
    )
    def test_frame_command_writes_result(self, tmp_path, capsys, command, function):
        frame = haar_sample(4, 2, seed=11)
        path = tmp_path / "frame.mat"
        save_matrix(path, frame)
        assert dispatch([command, "--input", str(path)]) == 0
        assert capsys.readouterr().out == dumps(function(frame).to_dict()) + "\n"

    def test_pluecker(self, extremal_file, capsys):
        assert dispatch(["pluecker", "--input", extremal_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p12"] == pytest.approx(0.5, abs=1e-15)
        assert list(payload) == ["p12", "p13", "p14", "p23", "p24", "p34"]

    def test_cs(self, extremal_file, capsys):
        assert dispatch(["cs", "--input", extremal_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == pytest.approx(0.0, abs=1e-14)
        assert payload["beta"] == pytest.approx(THIRD_PI, abs=1e-14)

    def test_best_submatrix(self, extremal_file, capsys):
        assert dispatch(["best-submatrix", "--input", extremal_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row_set"] == [0, 1]
        assert payload["sigma_min"] == pytest.approx(0.5, abs=1e-14)
        assert len(payload["all_values"]) == 6

    def test_best_submatrix_any_shape(self, tmp_path, capsys):
        path = tmp_path / "id.mat"
        save_matrix(path, np.eye(5)[:, :3])
        assert dispatch(["best-submatrix", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma_min"] == pytest.approx(1.0)

    def test_search_payload(self, capsys):
        code = dispatch(
            ["search", "--n", "3", "--k", "1", "--restarts", "2", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hypothesis_floor"] == pytest.approx(1.0 / math.sqrt(3.0))
        assert payload["floor_violated"] is False
        assert payload["best_value"] >= payload["hypothesis_floor"] - worstcase.FLOOR_TOL
        assert len(payload["per_restart_values"]) == 2

    def test_search_floor_tolerance_is_read_at_call_time(self, capsys, monkeypatch):
        # A negative slack puts the threshold above every value, so the
        # search reports a violation and exits 1.
        monkeypatch.setattr(worstcase, "FLOOR_TOL", -1.0)
        assert dispatch(["search", "--n", "3", "--k", "1", "--restarts", "1"]) == 1
        assert json.loads(capsys.readouterr().out)["floor_violated"] is True

    def test_search_over_descent_cap_exit_two(self, capsys, monkeypatch):
        # The descent at (8, 3) holds 3,136 table entries.  Over the cap
        # the search is refused as an input error (2), not reported as a
        # floor violation (1).
        monkeypatch.setattr(worstcase, "MAX_DESCENT_ENTRIES", 3_135)
        worstcase._moves.cache_clear()
        assert dispatch(["search", "--n", "8", "--k", "3"]) == 2
        assert "over the cap 3135" in capsys.readouterr().err

    def test_certify_small_grid(self, capsys):
        # Checks 4 and 5 are exact proofs with no grid to set: the
        # retired --grid option is a usage error, and the report records
        # only the form bound.
        assert dispatch(["certify", "--grid", "51"]) == 2
        assert "unrecognized arguments: --grid 51" in capsys.readouterr().err
        assert dispatch(["certify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["config"] == {"bound": 0.75}
        assert len(payload["checks"]) == 6

    def test_certify_grid_below_three_exit_two(self, capsys):
        assert dispatch(["certify", "--grid", "2"]) == 2
        assert "unrecognized arguments: --grid 2" in capsys.readouterr().err

    def test_certify_has_no_seed(self, capsys):
        assert dispatch(["certify", "--seed", "3"]) == 2
        assert dispatch(["certify"]) == 0
        assert "seed" not in json.loads(capsys.readouterr().out)["config"]

    def test_certify_bound_is_fixed(self, capsys):
        # The form bound is the constant transform-bound verifies; the
        # report still records it.
        assert dispatch(["certify", "--bound", "0.75"]) == 2
        assert dispatch(["certify"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["bound"] == 0.75

    def test_output_flag(self, extremal_file, tmp_path, capsys):
        out = tmp_path / "coords.json"
        assert dispatch(["pluecker", "--input", extremal_file, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["p34"] == pytest.approx(0.0, abs=1e-15)

    def test_verify_extremal_output(self, tmp_path):
        out = tmp_path / "check.json"
        assert dispatch(["verify-extremal", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True


class TestFigureEq3Data:
    def test_header_and_line_endings(self):
        text = figure_eq3_data(11)
        assert text.startswith("surface,x,y,z\n")
        assert "\r" not in text
        assert text.endswith("\n")

    def test_all_points_satisfy_equation(self):
        text = figure_eq3_data(31)
        worst = 0.0
        for line in text.splitlines()[1:]:
            surface, xs, ys, zs = line.split(",")
            x, y, z = float(xs), float(ys), float(zs)
            if surface in ("plus", "contact"):
                total = (
                    math.sin(x + THIRD_PI) ** 2
                    + math.sin(y + THIRD_PI) ** 2
                    + math.sin(z + THIRD_PI) ** 2
                )
                worst = max(worst, abs(total - 1.0))
            if surface in ("minus", "contact"):
                total = (
                    math.sin(x - THIRD_PI) ** 2
                    + math.sin(y - THIRD_PI) ** 2
                    + math.sin(z - THIRD_PI) ** 2
                )
                worst = max(worst, abs(total - 1.0))
        assert worst <= 1e-9

    def test_points_inside_cube(self):
        text = figure_eq3_data(21)
        lo, hi = THIRD_PI - 1e-12, 2.0 * THIRD_PI + 1e-12
        for line in text.splitlines()[1:]:
            _, xs, ys, zs = line.split(",")
            for v in (float(xs), float(ys), float(zs)):
                assert lo <= v <= hi

    def test_contact_rows_at_known_permutations(self):
        text = figure_eq3_data(101)
        target = sorted([math.pi / 2.0, THIRD_PI, 2.0 * THIRD_PI])
        contacts = [
            tuple(float(v) for v in line.split(",")[1:])
            for line in text.splitlines()[1:]
            if line.startswith("contact,")
        ]
        assert len(contacts) == 6
        for point in contacts:
            got = sorted(point)
            assert max(abs(a - b) for a, b in zip(got, target)) < 1e-9

    def test_rows_in_grid_order(self):
        # Within each surface, rows follow the grid in row-major order and
        # carry the grid coordinates exactly as format_float writes them.
        resolution = 31
        labels = [format_float(float(t)) for t in np.linspace(THIRD_PI, 2.0 * THIRD_PI, resolution)]
        index = {label: i for i, label in enumerate(labels)}
        cells = {}
        for line in figure_eq3_data(resolution).splitlines()[1:]:
            surface, xs, ys, _ = line.split(",")
            cells.setdefault(surface, []).append((index[xs], index[ys]))
        assert set(cells) == {"plus", "minus", "contact"}
        for rows in cells.values():
            assert rows == sorted(set(rows))

    @pytest.mark.parametrize(
        "resolution, digest",
        [
            (101, "535a0b2e8fa8ddc51d52c34365009d970beaabff6ae834246efb0fe45ee096e8"),
            (11, "4446931e7b923fce883f9b0335b9eb7876230ed0359878764e0ea0cf4e33f926"),
        ],
    )
    def test_bytes_pinned(self, resolution, digest):
        # The sha256 of the CSV as a per-row format_float loop wrote it.  The
        # numbers' digits come from exact float arithmetic, so a platform
        # whose numpy rounds differently fails here.
        text = figure_eq3_data(resolution)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_surfaces_both_present(self):
        text = figure_eq3_data(21)
        surfaces = {line.split(",")[0] for line in text.splitlines()[1:]}
        assert "plus" in surfaces
        assert "minus" in surfaces

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            figure_eq3_data(1)

    @pytest.mark.parametrize("resolution", [3.0, "5", True, None])
    def test_resolution_must_be_an_integer(self, resolution):
        # 3.0 and "5" failed inside numpy, and True read as 1.
        with pytest.raises(TypeError) as info:
            figure_eq3_data(resolution)
        assert str(info.value) == f"resolution must be an integer, got {resolution!r}"

    def test_numpy_integer_resolution_accepted(self):
        assert figure_eq3_data(np.int64(11)) == figure_eq3_data(11)

    def test_cli_figure_command(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert dispatch(["figure-eq3", "--resolution", "11", "--output", str(out)]) == 0
        assert out.read_text().startswith("surface,x,y,z\n")

    def test_command_calls_cli_attribute(self, monkeypatch, tmp_path):
        # A tracing harness wraps cli.figure_eq3_data by attribute, so the
        # command must look the name up in the cli module at call time.
        assert goodsub.cli.figure_eq3_data is figure_eq3_data
        calls = []
        monkeypatch.setattr(goodsub.cli, "figure_eq3_data", lambda r: calls.append(r) or "x\n")
        out = tmp_path / "fig.csv"
        assert dispatch(["figure-eq3", "--resolution", "5", "--output", str(out)]) == 0
        assert calls == [5]
        assert out.read_text() == "x\n"


# Formatting reference: the closed-form roots with a per-row loop that
# formats each number through format_float.
def _loop_figure_eq3_data(resolution):
    ts = np.linspace(THIRD_PI, 2.0 * THIRD_PI, resolution)
    targets, roots = {}, {}
    for name, shift in (("plus", THIRD_PI), ("minus", -THIRD_PI)):
        sq = np.sin(ts + shift) ** 2
        targets[name] = 1.0 - (sq[:, None] + sq[None, :])
        roots[name] = _eq3_root(targets[name], shift)
    pick = np.where(targets["plus"] > targets["minus"], roots["plus"], roots["minus"])
    contact = np.abs(roots["plus"] - roots["minus"]) <= CONTACT_TOL
    roots["contact"] = np.where(contact, pick, np.nan)
    lines = ["surface,x,y,z"]
    coords = [format_float(t) for t in ts.tolist()]
    for name, zs in roots.items():
        ii, jj = np.nonzero(~np.isnan(zs))
        for i, j, z in zip(ii.tolist(), jj.tolist(), zs[ii, jj].tolist()):
            lines.append(f"{name},{coords[i]},{coords[j]},{format_float(z)}")
    return "\n".join(lines) + "\n"


class TestFigureText:
    # figure_eq3_data's vectorized text equals format_float's, row for row.

    @pytest.mark.parametrize("resolution", [2, 3, 7, 11, 41, 101, 202])
    def test_bytes_equal_per_row_loop(self, resolution):
        assert figure_eq3_data(resolution) == _loop_figure_eq3_data(resolution)


# Reference implementation: the bisection solver and the contact
# heuristic that the closed-form roots replaced.
_REF_TARGET_SLACK = 1e-10
_REF_BISECT_STEPS = 60


def _ref_bisect(term, target, lo, hi, decreasing):
    t_lo = float(term(lo))
    t_hi = float(term(hi))
    upper = max(t_lo, t_hi)
    lower = min(t_lo, t_hi)
    target = np.asarray(target, dtype=float)
    valid = (target >= lower - _REF_TARGET_SLACK) & (target <= upper + _REF_TARGET_SLACK)
    clamped = np.clip(target, lower, upper)
    zlo = np.full(target.shape, lo)
    zhi = np.full(target.shape, hi)
    for _ in range(_REF_BISECT_STEPS):
        mid = 0.5 * (zlo + zhi)
        f = term(mid) - clamped
        go_right = f > 0.0 if decreasing else f < 0.0
        zlo = np.where(go_right, mid, zlo)
        zhi = np.where(go_right, zhi, mid)
    root = 0.5 * (zlo + zhi)
    return np.where(valid, root, np.nan)


def _ref_solve_plus(target, lo, hi):
    return _ref_bisect(lambda z: np.sin(z + THIRD_PI) ** 2, target, lo, hi, decreasing=True)


def _ref_solve_minus(target, lo, hi):
    return _ref_bisect(lambda z: np.sin(z - THIRD_PI) ** 2, target, lo, hi, decreasing=False)


def _residual(x, y, z):
    res = 0.0
    for sign in (1.0, -1.0):
        total = (
            math.sin(x + sign * THIRD_PI) ** 2
            + math.sin(y + sign * THIRD_PI) ** 2
            + math.sin(z + sign * THIRD_PI) ** 2
        )
        res = max(res, abs(total - 1.0))
    return res


def _ref_contact_z(x, y, zp, zm):
    best_z = zp
    best_res = math.inf
    for z in (zp, zm, 0.5 * (zp + zm)):
        res = _residual(x, y, z)
        if res < best_res:
            best_res = res
            best_z = z
    return best_z


def _ref_figure_eq3_data(resolution):
    lo, hi = THIRD_PI, 2.0 * THIRD_PI
    ts = np.linspace(lo, hi, resolution)
    xx, yy = np.meshgrid(ts, ts, indexing="ij")
    target_plus = 1.0 - (np.sin(xx + THIRD_PI) ** 2 + np.sin(yy + THIRD_PI) ** 2)
    target_minus = 1.0 - (np.sin(xx - THIRD_PI) ** 2 + np.sin(yy - THIRD_PI) ** 2)
    z_plus = _ref_solve_plus(target_plus, lo, hi)
    z_minus = _ref_solve_minus(target_minus, lo, hi)
    lines = ["surface,x,y,z"]
    for name, zs in (("plus", z_plus), ("minus", z_minus)):
        for i in range(resolution):
            for j in range(resolution):
                if not np.isnan(zs[i, j]):
                    lines.append(
                        f"{name},{format_float(float(ts[i]))},{format_float(float(ts[j]))},"
                        f"{format_float(float(zs[i, j]))}"
                    )
    both = ~(np.isnan(z_plus) | np.isnan(z_minus))
    contact = both & (np.abs(z_plus - z_minus) <= CONTACT_TOL)
    for i, j in zip(*np.nonzero(contact)):
        z = _ref_contact_z(ts[i], ts[j], z_plus[i, j], z_minus[i, j])
        lines.append(
            f"contact,{format_float(float(ts[i]))},{format_float(float(ts[j]))},"
            f"{format_float(float(z))}"
        )
    return "\n".join(lines) + "\n"


def _rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


def _max_residual(rows):
    worst = 0.0
    for surface, xs, ys, zs in rows:
        x, y, z = float(xs), float(ys), float(zs)
        signs = {"plus": (1.0,), "minus": (-1.0,), "contact": (1.0, -1.0)}[surface]
        for sign in signs:
            total = (
                math.sin(x + sign * THIRD_PI) ** 2
                + math.sin(y + sign * THIRD_PI) ** 2
                + math.sin(z + sign * THIRD_PI) ** 2
            )
            worst = max(worst, abs(total - 1.0))
    return worst


class TestClosedFormRoots:
    @pytest.mark.parametrize("resolution", [2, 3, 7, 41, 101])
    def test_matches_bisection_reference(self, resolution):
        got = _rows(figure_eq3_data(resolution))
        ref = _rows(_ref_figure_eq3_data(resolution))
        assert [row[:3] for row in got] == [row[:3] for row in ref]
        for g, r in zip(got, ref):
            assert abs(float(g[3]) - float(r[3])) <= 1e-14
        # Evaluating the residual in floats rounds by about an ulp of 1.
        # At resolution 2 the closed-form plus root z = fl(pi/2) is nearer
        # the exact root than the bisection's, yet reads 4.4e-16 against
        # 3.3e-16; at the default resolution the test below is strict.
        assert _max_residual(got) <= _max_residual(ref) + np.spacing(1.0)

    def test_default_resolution_residual_no_worse(self):
        got = _rows(figure_eq3_data(101))
        assert _max_residual(got) <= _max_residual(_rows(_ref_figure_eq3_data(101)))

    @pytest.mark.parametrize("resolution", [3, 11, 41, 101, 201])
    def test_contact_rows_solve_both_equations(self, resolution):
        contacts = [row for row in _rows(figure_eq3_data(resolution)) if row[0] == "contact"]
        assert contacts
        for _, xs, ys, zs in contacts:
            assert _residual(float(xs), float(ys), float(zs)) <= 1e-15

    @pytest.mark.parametrize("shift", [THIRD_PI, -THIRD_PI])
    def test_round_trip(self, shift):
        t = np.concatenate([np.linspace(0.0, 0.75, 10_001), [1e-300, 1e-20, 1e-10]])
        z = _eq3_root(t, shift)
        assert np.all((z >= THIRD_PI) & (z <= 2.0 * THIRD_PI))
        np.testing.assert_allclose(np.sin(z + shift) ** 2, t, rtol=0.0, atol=1e-15)

    def test_out_of_reach_targets(self):
        t = np.array([-1e-9, 0.75 + 1e-9, 1.0])
        for shift in (THIRD_PI, -THIRD_PI):
            assert np.all(np.isnan(_eq3_root(t, shift)))
