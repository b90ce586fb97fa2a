"""Command-line front end: gallery sweeps and report emission.

Subcommands:
  spectrum  eigenvalue table and per-level disc counts
  decay     per-level deviation-norm records (the primary CSV/JSON output)
  bounds    rate values, chain-sum tables, inequality verdicts
  lpnorms   sup-vs-mean-L1 equivalence reports on Riesz subspaces
  verify    run every property suite on the default gallery; exit 0/1

A JSON config file supplies base values; explicitly passed flags override
the file, and a file key that names no option is a config error.  Exit
codes: 0 all verdicts pass, 1 verdict failure, 2 config error.  Outputs are
deterministic for a fixed config and seed (no timestamps); every file
embeds the tool version and the resolved config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, bounds, norms, potential, projector
from .operator import BoundaryCondition, assemble, majorant_for
from .potential import FourierPotential, from_config, parse_potential_arg

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2

# every run option, once: key -> (default, type, help).  The flag is
# "--" + key with "_" as "-"; a type of None keeps the value as given (a
# potential spec in a config file may be a dict).
OPTIONS = {
    "potential": ("mathieu:1.0", None, "zero, mathieu:C, delta_comb:M, sawtooth:A or file:<json>"),
    "bc": ("per+", str, "per+, per- or dir"),
    "K": (64, int, "basis half-width (>= 4*n_max)"),
    "n_min": (8, int, "lowest level"),
    "n_max": (14, int, "highest level"),
    "rho_constant": (8.0, float, "the constant C of the rate rho_n"),
    "cutoff": (None, int, "index cutoff for the sums"),
    "seed": (20240801, int, "seed of the L^p sampling"),
    "samples": (200, int, "L^p samples per level"),
    "out": ("out", Path, "output directory"),
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    pot: FourierPotential
    potential: object  # the spec as given, echoed into every file
    bc: BoundaryCondition
    K: int
    n_min: int
    n_max: int
    rho_constant: float
    cutoff: int | None
    seed: int
    samples: int
    out: Path

    def echo(self) -> dict:
        return {**{key: getattr(self, key) for key in OPTIONS if key != "out"},
                "bc": self.bc.value}

    def levels(self) -> list[int]:
        return [n for n in range(self.n_min, self.n_max + 1) if self.bc.level_ok(n)]


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {key: default for key, (default, _, _) in OPTIONS.items()}
    try:
        if getattr(args, "config", None):
            with open(args.config) as fh:
                given = json.load(fh)
            if not isinstance(given, dict):
                raise ValueError(f"{args.config} holds no JSON object")
            unknown = sorted(set(given) - set(OPTIONS))
            if unknown:
                raise ValueError(f"unknown config key(s) {unknown} in {args.config}")
            merged.update(given)
        merged.update((key, val) for key in OPTIONS
                      if (val := getattr(args, key, None)) is not None)
        opts = {key: val if val is None or OPTIONS[key][1] is None else OPTIONS[key][1](val)
                for key, val in merged.items()}
        opts["cutoff"] = opts["cutoff"] or None  # 0 asks for the default too
        cutoff = opts["cutoff"] or bounds.default_cutoff(opts["n_max"])
        trunc = max(4 * opts["K"], 2 * cutoff + 2 * opts["n_max"])  # coefficients the sums read
        spec = opts["potential"]  # a gallery string, or a dict from a config file
        pot = (parse_potential_arg if isinstance(spec, str) else from_config)(
            spec, default_truncation=trunc)
        cfg = RunConfig(pot=pot, **{**opts, "bc": BoundaryCondition.parse(opts["bc"])})
    except (ValueError, TypeError, OSError) as exc:  # every input here comes from outside
        raise ConfigError(str(exc)) from exc
    if cfg.n_min < 1 or cfg.n_max < cfg.n_min:
        raise ConfigError("need 1 <= n_min <= n_max")
    if not cfg.levels():
        raise ConfigError(f"no level in [{cfg.n_min}, {cfg.n_max}] matches {cfg.bc.value} parity")
    if cfg.K < 4 * cfg.n_max:
        raise ConfigError(f"K = {cfg.K} < 4*n_max = {4 * cfg.n_max}")
    return cfg


def _cell(value):
    """The one CSV cell rule: a flag is 0/1, a float is %.12e, the rest as is."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, float):
        return f"{value:.12e}"
    return value


def _write_csv(path: Path, columns: list[str], rows: list[dict], cfg_echo: dict) -> None:
    """One header row of ``columns``, then each row's cells in that order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# hillproj {__version__}\n")
        fh.write("# config: " + json.dumps(cfg_echo, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(row[col]) for col in columns] for row in rows)


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict, cfg_echo: dict) -> None:
    """Strict JSON: a NaN or infinite value is written as null."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _finite_or_null({"version": __version__, "config": cfg_echo, **payload})
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    vals = np.sort_complex(H.eigenvalues())
    all_ok = True
    counts = []
    for n in cfg.levels():
        c = projector.eigen_count_in_disc(H, n)
        ok = c == cfg.bc.rank
        all_ok &= ok
        counts.append({"n": n, "count": c, "expected": cfg.bc.rank, "ok": ok})
    echo = cfg.echo()
    _write_csv(cfg.out / "spectrum_eigenvalues.csv", ["re", "im"],
               [{"re": z.real, "im": z.imag} for z in vals], echo)
    _write_csv(cfg.out / "spectrum_counts.csv", ["n", "count", "expected", "ok"], counts, echo)
    _write_json(cfg.out / "spectrum.json", {
        "eigenvalues": [[z.real, z.imag] for z in vals],
        "counts": counts, "all_ok": all_ok, "coverage": H.coverage,
    }, echo)
    return EXIT_OK if all_ok else EXIT_VERDICT


def cmd_decay(cfg: RunConfig) -> int:
    if cfg.n_min < 2:  # the rate rho_n is defined for n >= 2 only
        raise ConfigError(f"decay needs n_min >= 2, got {cfg.n_min}")
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    r = majorant_for(cfg.pot, cfg.bc, 2 * cfg.K)
    # a level that fails its preconditions is listed, and the sweep goes on
    pairs, failed = projector.riesz_projections(H, cfg.levels())
    records = [norms.decay_record(pair, r, cfg.rho_constant) for pair in pairs.values()]
    rows = [asdict(rec) for rec in records]
    errors = {str(n): f"{type(exc).__name__}: {exc}" for n, exc in failed.items()}
    echo = cfg.echo()
    _write_csv(cfg.out / "decay_records.csv", norms.DECAY_CSV_COLUMNS, rows, echo)
    _write_json(cfg.out / "decay.json", {
        "records": rows,
        "errors": errors,
    }, echo)
    if errors:
        print(f"decay: {len(errors)} level(s) failed: {sorted(errors)}", file=sys.stderr)
    unconverged = [rec.n for rec in records if not rec.converged]
    if unconverged:
        print(f"decay: quadrature did not converge at levels {unconverged}", file=sys.stderr)
    return EXIT_OK if records and not errors and not unconverged else EXIT_VERDICT


def _bounds_levels(cfg: RunConfig) -> list[int]:
    """Up to four log-spaced levels in range, parity-adjusted, all >= 4."""
    levels = set()
    for x in np.geomspace(max(cfg.n_min, 4), max(cfg.n_max, 4), num=4):
        n = int(round(x))
        if not cfg.bc.level_ok(n):
            n += 1
        if n <= cfg.n_max + 1:
            levels.add(n)
    return sorted(levels)


def cmd_bounds(cfg: RunConfig) -> int:
    r = majorant_for(cfg.pot, cfg.bc, 2 * cfg.K)
    pot = cfg.pot if cfg.bc.is_periodic_family else None
    reports, rows = [], []
    ok = True
    for n in _bounds_levels(cfg):
        rep = bounds.lemma_suite(r, n, cfg.cutoff, potential=pot,
                                 rho_constant=cfg.rho_constant)
        if pot is None:  # a check that never ran must not pass by omission
            rep.checks.extend(
                bounds.CheckResult(name, False, math.nan, math.nan,
                                   "not run: Dirichlet L/R needs a Toeplitz+Hankel majorant")
                for name in ("chain_le_sigma", "reflection_identity", "first_order_total"))
        max_tail = max(rep.tail_estimates.values(), default=0.0)
        rep.checks.append(bounds.CheckResult(
            "cutoff_converged", max_tail <= bounds.TAIL_RTOL, max_tail,
            bounds.TAIL_RTOL, "max relative tail estimate"))
        reports.append(bounds.report_to_json(rep))
        ok &= rep.all_passed
        rows += [{"n": n, **check} for check in reports[-1]["checks"]]
    echo = cfg.echo()
    _write_csv(cfg.out / "bounds_checks.csv",
               ["n", "name", "note", "passed", "lhs", "rhs", "margin", "gated"], rows, echo)
    _write_json(cfg.out / "bounds_report.json", {
        "reports": reports,
        "all_passed": ok,
    }, echo)
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_lpnorms(cfg: RunConfig) -> int:
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    levels = projector.validated_levels(H, cfg.levels())
    picks = levels[:: max(1, len(levels) // 3)][:3]
    runs = []  # (type, pair, report): the levels, then the blocks S_N
    for pair in projector.riesz_projections(H, picks)[0].values():
        runs.append(("level", pair,
                     norms.equivalence_check(pair, samples=cfg.samples, seed=cfg.seed)))
    for N in (10, 20):
        if N > cfg.n_max or not levels:
            continue
        N0 = max(4, min(levels) - 2)
        if N <= N0:
            continue
        block = projector.block_projection(H, N0, N)
        runs.append(("block", block,
                     norms.sn_equivalence(block, samples=cfg.samples, seed=cfg.seed)))
    results = [{"type": kind, **rep.__dict__, "quad_error_est": pair.quad_error_est,
                "converged": pair.converged} for kind, pair, rep in runs]
    ok = bool(runs) and all(rep.passed for _, _, rep in runs)
    unconverged = [pair.n if kind == "level" else f"S_{pair.n}"
                   for kind, pair, _ in runs if not pair.converged]
    echo = cfg.echo()
    _write_csv(cfg.out / "lpnorms.csv",
               ["type", "level", "samples", "max_ratio", "bound", "passed", "regime_ok"],
               results, echo)
    _write_json(cfg.out / "lpnorms.json", {"results": results, "all_passed": ok}, echo)
    if not runs:
        print("lpnorms: no level or block ran", file=sys.stderr)
    if unconverged:
        print(f"lpnorms: quadrature did not converge at {unconverged}", file=sys.stderr)
    return EXIT_OK if ok and not unconverged else EXIT_VERDICT


# ---------------------------------------------------------------------------
# verify: every property suite on the default gallery
# ---------------------------------------------------------------------------

def _verify_rows(seed: int) -> list[dict]:
    gallery = {
        "mathieu_1.0": potential.mathieu(1.0),
        "delta_comb_0.5": potential.delta_comb(0.5, max_index=4200),
    }
    rows: list[dict] = []

    def add(stage, name, value, tol, note=""):
        rows.append({"stage": stage, "name": name, "value": float(value),
                     "tolerance": float(tol), "passed": bool(value <= tol),
                     "note": note})

    # residue quadrature against the closed form, on levels of each lattice
    for pname, pot in gallery.items():
        for bc in BoundaryCondition:
            for n in ((9, 17) if bc is BoundaryCondition.PER_MINUS else (8, 16)):
                dev = projector.quadrature_vs_residue_check(pot, bc, n, 4 * n, nodes=64)
                add("residue", f"{pname}/{bc.value}/n={n}", dev, 1e-10)

    # projector algebra against the dense eigendecomposition
    for pname, pot in gallery.items():
        for bc in (BoundaryCondition.PER_PLUS, BoundaryCondition.DIRICHLET):
            H = assemble(bc, pot, 64)
            # the levels that fail a precondition are skipped
            for n, pair in projector.riesz_projections(H, range(6, 15))[0].items():
                add("algebra", f"{pname}/{bc.value}/n={n}/idempotency",
                    pair.idempotency, 1e-8)
                add("algebra", f"{pname}/{bc.value}/n={n}/trace", pair.trace_defect, 1e-6)
                dense = projector.spectral_projector_dense(H, n)
                add("algebra", f"{pname}/{bc.value}/n={n}/vs_dense",
                    float(np.linalg.norm(pair.P - dense, "fro")), 1e-7)

    # decay trend on a short sweep
    for pname, pot in gallery.items():
        H = assemble(BoundaryCondition.PER_PLUS, pot, 96)
        r = potential.majorant(pot)
        pairs, errors = projector.riesz_projections(H, range(8, 25, 2))
        if errors:
            raise next(iter(errors.values()))
        sums = [norms.decay_record(pair, r).sum_abs_B for pair in pairs.values()]
        third = len(sums) // 3
        add("decay", f"{pname}/trend", max(sums[-third:]), min(sums[:third]),
            "max of last third vs min of first third")

    # rate machinery and inequality suite
    for pname, pot in gallery.items():
        r = potential.majorant(pot)
        rep = bounds.lemma_suite(r, 32, potential=pot)
        worst = 0.0 if rep.all_passed else max(-c.margin for c in rep.failed())
        add("bounds", f"{pname}/lemma_suite(n=32)", worst, 0.0,
            f"{len(rep.checks)} checks")
        tail = max(rep.tail_estimates.values(), default=0.0)
        add("bounds", f"{pname}/cutoff_tail", tail, bounds.TAIL_RTOL)

    # resolvent-product identity on a small index set
    pot = gallery["mathieu_1.0"]
    idx = [n0 for n0 in range(2, 18, 2)]
    for s in (0, 1, 2):
        dev = bounds.sigma_nested_vs_matrix(pot, idx, complex(64.0, 8.0), s)
        add("series", f"mathieu/nested_vs_matrix/s={s}", dev, 1e-12)

    # L^p equivalence on Riesz subspaces and on a block
    for pname, pot in gallery.items():
        H = assemble(BoundaryCondition.PER_PLUS, pot, 64)
        pair = projector.riesz_projection(H, 12)
        rep = norms.equivalence_check(pair, samples=200, M=4096, seed=seed)
        if rep.regime_ok:
            add("lpnorms", f"{pname}/n=12/ratio", rep.max_ratio, rep.bound)
        block = projector.block_projection(H, 4, 8)
        add("lpnorms", f"{pname}/S_8/idempotency", block.idempotency, 1e-7)
        srep = norms.sn_equivalence(block, samples=100, M=4096, seed=seed)
        add("lpnorms", f"{pname}/S_8/ratio", srep.max_ratio, srep.bound)
    return rows


def cmd_verify(cfg: RunConfig) -> int:
    rows = _verify_rows(cfg.seed)
    ok = all(row["passed"] for row in rows)
    echo = {"seed": cfg.seed, "suite": "default-gallery"}
    _write_csv(cfg.out / "verify_checks.csv",
               ["stage", "name", "value", "tolerance", "passed", "note"], rows, echo)
    _write_json(cfg.out / "verify_report.json", {"checks": rows, "all_passed": ok}, echo)
    for row in rows:
        if not row["passed"]:
            print(f"FAIL {row['stage']}: {row['name']} "
                  f"value={row['value']:.3e} tol={row['tolerance']:.3e}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERDICT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hillproj", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("decay", cmd_decay),
                     ("bounds", cmd_bounds), ("lpnorms", cmd_lpnorms),
                     ("verify", cmd_verify)):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for key, (_, typ, help_) in OPTIONS.items():
            sp.add_argument("--" + key.replace("_", "-"), type=typ, help=help_)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(cfg)
    except (projector.EigenvalueOnContour, projector.RankMismatch) as exc:
        print(f"verdict failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
