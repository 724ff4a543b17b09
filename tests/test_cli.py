"""
CLI dispatch, exit codes, output files, and the figure data generator.

Ground truth: exit code contract (0 success, 1 failed check or floor
violation, 2 usage/input errors), JSON payload fields, and direct
re-evaluation of every emitted figure point in the consistency equation.
"""
import json
import math

import numpy as np
import pytest

from goodsub import dispatch, extremal_matrix, figure_eq3_data, format_float, save_matrix

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

    def test_no_command_exit_two(self):
        assert dispatch([]) == 2

    def test_unknown_command_exit_two(self):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_flag_exit_two(self):
        assert dispatch(["search", "--n", "4"]) == 2

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


class TestSubcommands:
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
        assert payload["best_value"] >= payload["hypothesis_floor"] - 1e-6
        assert len(payload["per_restart_values"]) == 2

    def test_certify_small_grid(self, capsys):
        assert dispatch(["certify", "--grid", "51"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["config"]["ellipse_grid_n"] == 51
        assert payload["config"]["lemma_grid_n"] == 51
        assert len(payload["checks"]) == 6

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

    def test_surfaces_both_present(self):
        text = figure_eq3_data(21)
        surfaces = {line.split(",")[0] for line in text.splitlines()[1:]}
        assert "plus" in surfaces
        assert "minus" in surfaces

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            figure_eq3_data(1)

    def test_cli_figure_command(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert dispatch(["figure-eq3", "--resolution", "11", "--output", str(out)]) == 0
        assert out.read_text().startswith("surface,x,y,z\n")
