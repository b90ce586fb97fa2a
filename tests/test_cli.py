import ast
import csv
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hillproj import BoundaryCondition, assemble, bounds, cli, potential, projector


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

    def test_hermitian_spectrum_is_real(self, tmp_path):
        code = run(["spectrum", "--potential", "mathieu:1.0", "--bc", "per+",
                    "--K", "48", "--n-min", "6", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 0
        body = read_csv_body(tmp_path / "spectrum_eigenvalues.csv")
        assert body[0] == "re,im" and len(body) == 50
        assert all(float(line.split(",")[1]) == 0.0 for line in body[1:])

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
        # n = 12 neighbour still produces a record, and the failed levels
        # fail the verdict
        cfgfile = tmp_path / "pot.json"
        cfgfile.write_text(json.dumps({
            "kind": "custom", "v0": [10.0, 0.0],
            "entries": [[2, 0.25, 0.0], [-2, -0.25, 0.0]]}))
        code = run(["decay", "--potential", f"file:{cfgfile}", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "decay.json").read_text())
        assert sorted(r["n"] for r in payload["records"]) == [12]
        assert "RankMismatch" in payload["errors"]["8"]
        assert "EigenvalueOnContour" in payload["errors"]["10"]

    def test_json_carries_quadrature_evidence(self, tmp_path):
        code = run(["decay", "--potential", "mathieu:1.0", "--bc", "dir",
                    "--K", "48", "--n-min", "8", "--n-max", "10", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "decay.json").read_text())
        H = assemble(BoundaryCondition.DIRICHLET, potential.mathieu(1.0), 48)
        pairs, _ = projector.riesz_projections(H, [8, 9, 10])
        assert [rec["n"] for rec in payload["records"]] == list(pairs)
        for rec in payload["records"]:
            pair = pairs[rec["n"]]
            assert rec["converged"] is True
            assert rec["quad_error_est"] < 1e-10
            assert (rec["nodes_used"], rec["radius"], rec["rate"]) == (
                pair.nodes_used, pair.radius, pair.rate)
            assert rec["radius"] < rec["n"] and rec["rate"] < 0.5
            assert rec["idempotency"] < 1e-8
            assert rec["trace_defect"] < 1e-8
            # the guard refuses margins below 5% of the radius
            assert 0.05 <= rec["guard_margin"] <= 1.0
        header = read_csv_body(tmp_path / "decay_records.csv")[0].split(",")
        for field in ("converged", "nodes_used", "radius", "rate", "trace_defect",
                      "guard_margin"):
            assert field not in header

    def test_unconverged_level_is_verdict_failure(self, tmp_path, monkeypatch):
        import hillproj.projector as prj
        monkeypatch.setattr(prj, "_TOL", 1e-30)
        monkeypatch.setattr(prj, "_MAX_NODES", 64)
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

        monkeypatch.setattr(prj, "riesz_projections", broken)
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

    def test_coefficients_reach_the_default_cutoff(self):
        # with no --cutoff, lemma_suite sums to bounds.default_cutoff(n)
        args = cli._build_parser().parse_args(
            ["bounds", "--potential", "delta_comb:0.5", "--n-max", "14"])
        cfg = cli._resolve_config(args)
        assert cfg.pot.max_index == 2 * bounds.default_cutoff(14) + 2 * 14

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

    def test_dirichlet_lists_unrun_checks_as_failed(self, tmp_path):
        # the L/R chain sums need a FourierPotential; on Dirichlet they are
        # not computed, so their checks must not pass by omission
        code = run(["bounds", "--potential", "mathieu:1.0", "--bc", "dir",
                    "--K", "64", "--n-min", "8", "--n-max", "14",
                    "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "bounds_report.json").read_text())
        assert payload["all_passed"] is False
        for rep in payload["reports"]:
            assert rep["L"] == {} and rep["gated_passed"] is False
            unrun = [c for c in rep["checks"] if c["note"].startswith("not run")]
            assert sorted(c["name"] for c in unrun) == [
                "chain_le_sigma", "first_order_total", "reflection_identity"]
            assert all(not c["passed"] and c["lhs"] is None for c in unrun)
            assert all(c["passed"] for c in rep["checks"] if c not in unrun)


class TestLpNorms:
    def test_free_case(self, tmp_path):
        code = run(["lpnorms", "--potential", "zero", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--samples", "50", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "lpnorms.json").read_text())
        assert payload["all_passed"] and payload["results"]
        assert {res["type"] for res in payload["results"]} == {"level", "block"}
        for res in payload["results"]:  # the same evidence for levels and blocks
            assert res["converged"] is True and res["quad_error_est"] < 1e-10

    def test_nothing_run_is_verdict_failure(self, tmp_path, capsys):
        # the strong comb fails the gate of every level 2 .. 6 (as ``decay``
        # reports on the same flags), so no level runs and no block is built
        code = run(["lpnorms", "--potential", "delta_comb:20", "--K", "32",
                    "--n-min", "2", "--n-max", "6", "--out", str(tmp_path)])
        assert code == 1
        assert "no level or block ran" in capsys.readouterr().err
        payload = json.loads((tmp_path / "lpnorms.json").read_text())
        assert payload["results"] == [] and payload["all_passed"] is False

    def test_unconverged_level_is_verdict_failure(self, tmp_path, monkeypatch, capsys):
        import hillproj.projector as prj
        monkeypatch.setattr(prj, "_TOL", 1e-30)
        monkeypatch.setattr(prj, "_MAX_NODES", 64)
        code = run(["lpnorms", "--potential", "mathieu:1.0", "--bc", "per+",
                    "--K", "48", "--n-min", "8", "--n-max", "12",
                    "--samples", "50", "--out", str(tmp_path)])
        assert code == 1
        assert "did not converge" in capsys.readouterr().err
        payload = json.loads((tmp_path / "lpnorms.json").read_text())
        levels = [res for res in payload["results"] if res["type"] == "level"]
        assert levels and all(res["converged"] is False for res in levels)
        # the S_10 block sums the same unconverged level projections
        blocks = [res for res in payload["results"] if res["type"] == "block"]
        assert blocks and all(res["converged"] is False for res in blocks)
        header = read_csv_body(tmp_path / "lpnorms.csv")[0]
        assert header == "type,level,samples,max_ratio,bound,passed,regime_ok"


def strict_json(path: Path):
    """Parse a file as strict JSON: NaN and Infinity tokens are errors."""
    def reject(token):
        raise ValueError(f"{path.name}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestStrictJson:
    def test_non_finite_values_are_null(self, tmp_path):
        # Dirichlet bounds has nan sides for its unrun checks, and the
        # per+ lpnorms S_N block a nan proxy
        run(["bounds", "--potential", "mathieu:1.0", "--bc", "dir", "--K", "64",
             "--n-min", "8", "--n-max", "14", "--out", str(tmp_path / "b")])
        run(["lpnorms", "--potential", "mathieu:1.0", "--bc", "per+", "--K", "64",
             "--n-min", "4", "--n-max", "14", "--out", str(tmp_path / "l")])
        report = strict_json(tmp_path / "b" / "bounds_report.json")
        assert all(c["margin"] is None for rep in report["reports"]
                   for c in rep["checks"] if c["note"].startswith("not run"))
        blocks = [res for res in strict_json(tmp_path / "l" / "lpnorms.json")["results"]
                  if res["type"] == "block"]
        assert blocks and all(res["proxy"] is None for res in blocks)


class TestImports:
    def test_package_loads_no_scipy(self):
        # scipy serves the tests only; importing it would cost every CLI
        # process its start-up time and resident memory
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys, hillproj, hillproj.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    SMALL = ["--potential", "mathieu:1.0", "--K", "48", "--n-min", "8", "--n-max", "10"]

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--bc", "per+", *SMALL],
        ["decay", "--bc", "per+", *SMALL],
        ["decay", "--bc", "dir", *SMALL],
        ["bounds", "--bc", "per+", *SMALL],
        ["lpnorms", "--bc", "per+", *SMALL, "--samples", "20"],
        ["verify", "--seed", "1"],
    ], ids=["spectrum", "decay-per", "decay-dir", "bounds", "lpnorms", "verify"])
    def test_commands_load_no_scipy_and_no_numpy_ma(self, argv, tmp_path):
        # numpy.ma costs about 10 ms on first import; a flagless np.unique loads it
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = ("import sys; from hillproj import cli; "
                f"code = cli.main({[*argv, '--out', str(tmp_path)]!r}); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m.split('.')[:2] == ['numpy', 'ma']))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "0 []"


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

    @pytest.mark.parametrize("given,named", [
        ({"n_maxx": 20, "K": 64}, "n_maxx"),  # misspelt: must not fall back to n_max = 14
        ({"K": "sixty-four"}, "sixty-four"),
        ({"K": [64]}, "list"),  # a TypeError, not a crash with exit code 1
        (5, "no JSON object"),
        ({"nodes": 32}, "nodes"),  # the start of every contour is no option
    ], ids=["unknown-key", "bad-value", "bad-type", "not-an-object", "nodes"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, given, named):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(given))
        code = run(["decay", "--config", str(cfgfile), "--out", str(tmp_path / "a")])
        assert code == 2
        assert "config error" in (err := capsys.readouterr().err) and named in err
        assert not (tmp_path / "a").exists()

    def test_config_values_take_the_option_types(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"K": "48", "n_max": 10.0, "rho_constant": 4,
                                       "cutoff": 0, "out": str(tmp_path / "a")}))
        cfg = cli._resolve_config(cli._build_parser().parse_args(
            ["decay", "--config", str(cfgfile), "--n-min", "8"]))
        assert (cfg.K, cfg.n_min, cfg.n_max, cfg.cutoff) == (48, 8, 10, None)
        assert type(cfg.rho_constant) is float and cfg.out == tmp_path / "a"
        assert cfg.echo() == {"potential": "mathieu:1.0", "bc": "per+", "K": 48,
                              "n_min": 8, "n_max": 10,
                              "rho_constant": 4.0, "cutoff": None,
                              "seed": 20240801, "samples": 200}

    def test_decay_deterministic(self, tmp_path):
        args = ["decay", "--potential", "mathieu:1.0", "--bc", "per+",
                "--K", "48", "--n-min", "8", "--n-max", "10"]
        run(args + ["--out", str(tmp_path / "r1")])
        run(args + ["--out", str(tmp_path / "r2")])
        for name in ("decay_records.csv", "decay.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b


FLOAT_CELL = re.compile(r"^(-?\d\.\d{12}e[+-]\d{2,3}|nan)$")


class TestCellRule:
    """Every CSV cell goes through ``cli._cell``: flags 0/1, floats %.12e."""

    # file -> (flag columns, float columns, integer columns)
    FILES = {
        "spectrum_eigenvalues.csv": ((), ("re", "im"), ()),
        "spectrum_counts.csv": (("ok",), (), ("n", "count", "expected")),
        "decay_records.csv": (("bound_valid",), ("sum_abs_B", "l1_linf_bound", "t_n",
                                                 "frob", "rho_n", "eps_n", "kappa_n",
                                                 "bound64"), ("n",)),
        "bounds_checks.csv": (("passed", "gated"), ("lhs", "rhs", "margin"), ("n",)),
        "lpnorms.csv": (("passed", "regime_ok"), ("max_ratio", "bound"),
                        ("level", "samples")),
        "verify_checks.csv": (("passed",), ("value", "tolerance"), ()),
    }

    def test_cells_of_every_command(self, tmp_path):
        small = ["--potential", "mathieu:1.0", "--K", "48", "--n-min", "8", "--n-max", "10"]
        for argv in (["spectrum", "--bc", "per+", *small], ["decay", "--bc", "per+", *small],
                     ["bounds", "--bc", "dir", *small],  # unrun checks: nan lhs
                     ["lpnorms", "--bc", "per+", *small, "--samples", "20"],
                     ["verify", "--seed", "1"]):
            run(argv + ["--out", str(tmp_path)])
        cells = {"flag": set(), "nan": 0}
        for name, (flags, floats, ints) in self.FILES.items():
            body = read_csv_body(tmp_path / name)
            header = body[0].split(",")
            for row in csv.DictReader(body):
                assert len(row) == len(header) and None not in row, (name, row)
                for col in flags:
                    assert row[col] in ("0", "1"), (name, col, row[col])
                    cells["flag"].add(row[col])
                for col in floats:
                    assert FLOAT_CELL.match(row[col]), (name, col, row[col])
                    cells["nan"] += row[col] == "nan"
                for col in ints:
                    assert row[col].isdigit(), (name, col, row[col])
        assert cells["flag"] == {"0", "1"} and cells["nan"] > 0

    def test_cell(self):
        # csv writes str(cell): np.bool_ would read "True" unconverted
        assert cli._cell(np.bool_(True)) == 1 and str(cli._cell(np.bool_(True))) == "1"
        assert str(cli._cell(False)) == "0"
        assert cli._cell(np.float64(0.5)) == "5.000000000000e-01"
        assert cli._cell(float("nan")) == "nan"
        assert cli._cell(np.int64(7)) == 7 and cli._cell("per+") == "per+"


class TestExports:
    """A name left in ``__all__`` or re-exported after a deletion must fail here."""

    @pytest.mark.parametrize("module", ["bounds", "norms", "operator", "potential"])
    def test_all_resolves(self, module):
        mod = importlib.import_module(f"hillproj.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

    def test_top_level_reexports_resolve(self):
        import hillproj
        tree = ast.parse(Path(hillproj.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = importlib.import_module(f"hillproj.{node.module}")
                for alias in node.names:
                    assert getattr(hillproj, alias.asname or alias.name) is \
                        getattr(source, alias.name), alias.name
