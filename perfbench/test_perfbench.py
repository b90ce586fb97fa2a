"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import Workload  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class FakeReport:
    tail_estimates = {"sigma[s=1]": 0.02}

    def failed(self):
        return ["cutoff_converged"]


def nested_spans():
    # cli.main [0, 10] -> projector.riesz_projection [1, 4] -> operator.HillMatrix.eig [2, 3]
    #                  -> bounds.lemma_suite [5, 9]
    return [Span("cli.main", 0.0, 10.0, None),
            Span("projector.riesz_projection", 1.0, 4.0, 0,
                 {"nodes_used": 128, "doublings": 1, "converged": True}),
            Span("operator.HillMatrix.eig", 2.0, 3.0, 1, {"computes": True}),
            Span("bounds.lemma_suite", 5.0, 9.0, 0, {"peak_bytes": 2 ** 20, "report": FakeReport()})]


def test_self_time_is_span_minus_direct_children():
    assert tracer.self_times(nested_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a.f", 0.0, 10.0, None), Span("a.g", 1.0, 5.0, 0), Span("a.h", 3.0, 7.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_inclusive_skips_spans_nested_in_the_same_group():
    spans = [Span("cli.main", 0.0, 10.0, None),
             Span("potential.parse_potential_arg", 1.0, 4.0, 0),
             Span("potential.delta_comb", 2.0, 3.0, 1),
             Span("potential.mathieu", 5.0, 6.0, 0)]
    assert tracer.inclusive(spans, tracer.BUILDERS) == pytest.approx(4.0)


def test_module_self_times_account_for_the_traced_wall():
    m = tracer.layer_metrics(nested_spans(), wall_s=10.5)
    assert sum(m[f"{mod}.self_s"] for mod in tracer.MODULES) == pytest.approx(10.0)
    assert m["cli.self_s"] == 3.0 and m["projector.self_s"] == 2.0
    assert m["trace.unaccounted_s"] == pytest.approx(0.5)
    assert m["projector.riesz_s"] == 2.0 and m["projector.level_s.p50"] == 3.0
    assert m["projector.solves"] == 128 and m["operator.eig_calls"] == 1
    assert m["bounds.lemma_suite_peak_mb"] == 1.0 and m["bounds.checks_failed"] == 1
    assert m["bounds.tail_max"] == 0.02


def test_percentile_is_nearest_rank():
    assert tracer.percentile(list(range(1, 11)), 0.9) == 9
    assert tracer.percentile([], 0.5) == 0.0


# ---------------------------------------------------------------------------
# level outcomes and fail_frac
# ---------------------------------------------------------------------------

DECAY = Workload("t-decay", "decay", {"potential": "delta_comb:0.5", "bc": "per+", "K": 32,
                                      "n_min": 2, "n_max": 8})
NORMS = {"sum_abs_B": 0.5, "frob": 0.2, "t_n": 0.1}


def write_cli_csv(path: Path, header: list, rows: list) -> None:
    lines = ["# hillproj test", "# config: {}", ",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_decay(out: Path, levels, errors, perturb=None):
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in levels:
        vals = dict(NORMS)
        if n == perturb:
            vals["frob"] *= 1.0 + 1e-4
        rows.append([n, f"{vals['sum_abs_B']:.12e}", 0, f"{vals['t_n']:.12e}",
                     f"{vals['frob']:.12e}", 0, 0, 0, 0, 0])
    write_cli_csv(out / "decay_records.csv", ["n", "sum_abs_B", "l1_linf_bound", "t_n",
                                              "frob", "rho_n", "eps_n", "kappa_n",
                                              "bound64", "bound_valid"], rows)
    (out / "decay.json").write_text(json.dumps({"records": [], "errors": errors}))


def test_fail_frac_counts_raised_level_and_oracle_mismatch(tmp_path):
    write_decay(tmp_path, [2, 4, 8], {"6": "EigenvalueOnContour: close"}, perturb=8)
    rep = oracle.check_decay(tmp_path, 0, DECAY, lambda n: NORMS)
    assert rep.levels[2] is None and rep.levels[4] is None
    assert rep.levels[6].startswith("raised")
    assert rep.levels[8].startswith("oracle: frob")
    assert oracle.fail_frac(rep.levels) == 0.5
    assert len(rep.problems) == 2  # the errors map and the oracle mismatch


def write_bounds(out: Path, failing: dict, mass=0.5, cutoff=64, r_max=256):
    out.mkdir(parents=True, exist_ok=True)
    rows, reports = [], []
    for n, failed in failing.items():
        rows.append([n, "sigma_le_eps_power", "s=1", 1, 0, 0, 0, 1])
        rows.append([n, "cutoff_converged", "tail", 0 if failed else 1, 0, 0, 0, 0])
        sigma = oracle.sigma1_direct(mass, n, cutoff, r_max)
        reports.append({"inputs": {"n": n, "cutoff": cutoff, "r_max_index": r_max},
                        "sigma": {"1": sigma}})
    write_cli_csv(out / "bounds_checks.csv",
                  ["n", "name", "note", "passed", "lhs", "rhs", "margin", "gated"], rows)
    (out / "bounds_report.json").write_text(json.dumps({"reports": reports}))


BOUNDS = Workload("t-bounds", "bounds", {"potential": "delta_comb:0.5", "bc": "per+",
                                         "K": 64, "n_min": 8, "n_max": 16, "cutoff": 64})


def test_failed_verdict_fails_its_level_but_not_the_output(tmp_path):
    write_bounds(tmp_path, {8: False, 16: True})
    rep = oracle.check_bounds(tmp_path, 1, BOUNDS)
    assert rep.levels == {8: None, 16: "verdict failed: cutoff_converged"}
    assert oracle.fail_frac(rep.levels) == 0.5
    assert rep.problems == []
    assert oracle.check_bounds(tmp_path, 0, BOUNDS).problems  # exit 0 despite a failure


def test_checker_flags_a_run_that_crashed_or_differs(tmp_path):
    write_bounds(tmp_path / "a", {8: False})
    write_bounds(tmp_path / "b", {8: False}, cutoff=32)
    checker = oracle.Checker(BOUNDS)
    assert checker.check(tmp_path / "a", 0).problems == []
    assert checker.check(tmp_path / "b", 0).problems == ["output differs from the first run"]
    crashed = checker.check(tmp_path / "a", None, "Traceback ...")
    assert crashed.problems and oracle.fail_frac(crashed.levels) == 1.0


# ---------------------------------------------------------------------------
# the oracles against the program
# ---------------------------------------------------------------------------

def test_decay_oracle_accepts_the_cli_and_rejects_a_perturbed_value(tmp_path):
    from hillproj import cli

    small = Workload("t-small", "decay", {"potential": "delta_comb:0.5", "bc": "per+",
                                          "K": 32, "n_min": 4, "n_max": 8})
    out = tmp_path / "out"
    assert cli.main(small.argv() + ["--out", str(out)]) == 0
    dense = oracle.DenseDecayOracle(small)
    rep = oracle.check_decay(out, 0, small, dense)
    assert rep.problems == [] and set(rep.levels) == {4, 6, 8}

    path = out / "decay_records.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")  # the first record, n = 4
    cells[1] = f"{float(cells[1]) * (1 + 1e-5):.12e}"
    path.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    rep = oracle.check_decay(out, 0, small, dense)
    assert rep.levels[4].startswith("oracle: sum_abs_B")
    assert oracle.fail_frac(rep.levels) == pytest.approx(1 / 3)


def test_sigma1_direct_matches_the_program():
    from hillproj import bounds, potential

    r = potential.majorant(potential.delta_comb(0.5, max_index=600))
    got = bounds.sigma(r, 8, 1, cutoff=256, check_tail=False)
    assert got == pytest.approx(oracle.sigma1_direct(0.5, 8, 256, 600), rel=1e-12)


def test_tracer_wraps_and_restores_the_cli(tmp_path):
    from hillproj import cli, operator

    original = cli.assemble
    small = Workload("t-small", "decay", {"potential": "mathieu:1.0", "bc": "dir",
                                          "K": 32, "n_min": 6, "n_max": 8})
    result = tracer.run_pass(small.argv() + ["--out", str(tmp_path)], traced=True)
    assert result["returncode"] == 0
    m = result["metrics"]
    assert m["projector.solves"] == 3 * 128  # rank-1 Dirichlet levels need 128 nodes
    assert m["operator.basis_size"] == 32 and m["operator.assemble_s"] > 0
    assert abs(m["trace.unaccounted_s"]) < 1e-3
    assert cli.assemble is original is operator.assemble


def test_benchmark_json_names_every_reported_metric():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    passes = [{"traced": False, "wall_s": 10.0},
              {"traced": True, "wall_s": 10.5,
               "metrics": tracer.layer_metrics(nested_spans(), 10.5)}]
    layer = set(tracer.summarize(passes)) | {"fail_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
