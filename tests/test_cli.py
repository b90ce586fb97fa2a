import json
from pathlib import Path

import numpy as np
import pytest

from hillproj import cli


def run(argv):
    return cli.main(argv)


def read_csv_body(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# hillproj")
    assert lines[1].startswith("# config:")
    return lines[2:]


class TestSpectrum:
    def test_zero_potential_counts(self, tmp_path):
        code = run(["spectrum", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "6", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        body = read_csv_body(tmp_path / "spectrum_counts.csv")
        assert body[0] == "n,count,expected,ok"
        for line in body[1:]:
            n, count, expected, ok = line.split(",")
            assert count == "2" and ok == "1"
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["all_ok"] and payload["version"]

    def test_bad_parity_range_is_config_error(self, tmp_path, capsys):
        code = run(["spectrum", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "9", "--n-max", "9",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "parity" in capsys.readouterr().err

    def test_k_floor_is_config_error(self, tmp_path):
        code = run(["spectrum", "--potential", "zero", "--bc", "per+",
                    "--K", "16", "--n-min", "6", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 2


class TestDecay:
    def test_zero_potential_rows_are_zero(self, tmp_path):
        code = run(["decay", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        body = read_csv_body(tmp_path / "decay_records.csv")
        header = body[0].split(",")
        assert header == ["n", "sum_abs_B", "l1_linf_bound", "t_n", "frob",
                          "rho_n", "eps_n", "kappa_n", "bound64", "bound_valid"]
        for line in body[1:]:
            vals = line.split(",")
            assert float(vals[1]) < 1e-12

    def test_validity_flag_consistent(self, tmp_path):
        run(["decay", "--potential", "mathieu:1.0", "--bc", "per+",
             "--K", "48", "--n-min", "8", "--n-max", "12", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "decay.json").read_text())
        for rec in payload["records"]:
            assert rec["bound_valid"] == (rec["kappa_n"] < 0.25)
            assert np.isclose(rec["bound64"], 64 * rec["kappa_n"])

    def test_per_level_isolation(self, tmp_path):
        # v0 = 10 parks an eigenvalue cluster on the n = 10 contour and
        # empties the n = 8 disc: both levels are recorded as errors, the
        # n = 12 neighbour still produces a record
        cfgfile = tmp_path / "pot.json"
        cfgfile.write_text(json.dumps({
            "kind": "custom", "v0": [10.0, 0.0],
            "entries": [[2, 0.25, 0.0], [-2, -0.25, 0.0]]}))
        code = run(["decay", "--potential", f"file:{cfgfile}", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "decay.json").read_text())
        assert sorted(r["n"] for r in payload["records"]) == [12]
        assert "RankMismatch" in payload["errors"]["8"]
        assert "EigenvalueOnContour" in payload["errors"]["10"]

    def test_json_carries_quadrature_evidence(self, tmp_path):
        code = run(["decay", "--potential", "mathieu:1.0", "--bc", "dir",
                    "--K", "48", "--n-min", "8", "--n-max", "10", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "decay.json").read_text())
        for rec in payload["records"]:
            assert rec["converged"] is True
            assert rec["quad_error_est"] < 1e-10
            assert rec["nodes_used"] == 64
            assert rec["idempotency"] < 1e-8
        header = read_csv_body(tmp_path / "decay_records.csv")[0].split(",")
        assert "converged" not in header and "nodes_used" not in header

    def test_unconverged_level_is_verdict_failure(self, tmp_path, monkeypatch):
        import hillproj.projector as prj
        real = prj.riesz_projection
        monkeypatch.setattr(prj, "riesz_projection",
                            lambda H, n, contour: real(H, n, contour, tol=1e-30,
                                                       max_nodes=64))
        code = run(["decay", "--potential", "mathieu:1.0", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "10", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "decay.json").read_text())
        assert [r["converged"] for r in payload["records"]] == [False, False]

    def test_level_one_is_config_error(self, tmp_path, capsys):
        code = run(["decay", "--potential", "mathieu:1.0", "--bc", "per-",
                    "--K", "48", "--n-min", "1", "--n-max", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "decay needs n_min >= 2" in capsys.readouterr().err
        assert not (tmp_path / "decay.json").exists()

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only the projector's domain errors are per-level failures; a bug
        # must crash the sweep instead of becoming a skipped level
        import hillproj.projector as prj

        def broken(*args, **kwargs):
            raise TypeError("broken projector")

        monkeypatch.setattr(prj, "riesz_projection", broken)
        with pytest.raises(TypeError, match="broken projector"):
            run(["decay", "--potential", "mathieu:1.0", "--bc", "per+",
                 "--K", "48", "--n-min", "8", "--n-max", "10", "--out", str(tmp_path)])


class TestBounds:
    def test_zero_potential_all_pass(self, tmp_path):
        code = run(["bounds", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--cutoff", "512", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "bounds_report.json").read_text())
        assert payload["all_passed"]

    def test_small_cutoff_is_config_error(self, tmp_path):
        code = run(["bounds", "--potential", "zero", "--bc", "per+",
                    "--K", "64", "--n-min", "8", "--n-max", "16",
                    "--cutoff", "64", "--out", str(tmp_path)])
        assert code == 2

    def test_unconverged_cutoff_surfaces_as_verdict(self, tmp_path):
        # slowly decaying comb at the minimum legal cutoff: the tail
        # estimate exceeds 1% and the convergence verdict fails
        code = run(["bounds", "--potential", "delta_comb:0.5", "--bc", "per+",
                    "--K", "32", "--n-min", "8", "--n-max", "8",
                    "--cutoff", "64", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "bounds_report.json").read_text())
        names = {c["name"]: c["passed"] for rep in payload["reports"]
                 for c in rep["checks"]}
        assert names["cutoff_converged"] is False


class TestLpNorms:
    def test_free_case(self, tmp_path):
        code = run(["lpnorms", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--samples", "50", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "lpnorms.json").read_text())
        assert payload["all_passed"] and payload["results"]


class TestVerify:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_broken_residue_formula_fails(self, tmp_path, monkeypatch):
        import hillproj.projector as prj
        monkeypatch.setattr(prj, "first_order_residue",
                            lambda pot, bc, n, k, m: 0.0)
        code = run(["verify", "--out", str(tmp_path), "--seed", "1"])
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "potential": "mathieu:1.0", "bc": "per+", "K": 40,
            "n_min": 8, "n_max": 10, "out": str(tmp_path / "a")}))
        code = run(["spectrum", "--config", str(cfgfile), "--K", "64"])
        assert code == 0
        payload = json.loads((tmp_path / "a" / "spectrum.json").read_text())
        assert payload["config"]["K"] == 64          # flag wins
        assert payload["config"]["n_min"] == 8       # file value kept

    def test_decay_deterministic(self, tmp_path):
        args = ["decay", "--potential", "mathieu:1.0", "--bc", "per+",
                "--K", "48", "--n-min", "8", "--n-max", "10"]
        run(args + ["--out", str(tmp_path / "r1")])
        run(args + ["--out", str(tmp_path / "r2")])
        for name in ("decay_records.csv", "decay.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
