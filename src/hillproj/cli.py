"""Command-line front end: gallery sweeps and report emission.

Subcommands:
  spectrum  eigenvalue table and per-level disc counts
  decay     per-level deviation-norm records (the primary CSV/JSON output)
  bounds    rate values, chain-sum tables, inequality verdicts
  lpnorms   sup-vs-mean-L1 equivalence reports on Riesz subspaces
  verify    run every property suite on the default gallery; exit 0/1

A JSON config file supplies base values; explicitly passed flags override
the file.  Exit codes: 0 all verdicts pass, 1 verdict failure, 2 config
error.  Outputs are deterministic for a fixed config and seed (no
timestamps); every file embeds the tool version and the resolved config.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bounds, norms, potential, projector
from .operator import BoundaryCondition, assemble
from .potential import FourierPotential, from_config, parse_potential_arg

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2

DEFAULTS = {
    "potential": "mathieu:1.0",
    "bc": "per+",
    "K": 64,
    "n_min": 8,
    "n_max": 14,
    "nodes": 64,
    "rho_constant": 8.0,
    "cutoff": None,
    "seed": 20240801,
    "out": "out",
    "samples": 200,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    pot: FourierPotential
    pot_spec: object
    bc: BoundaryCondition
    K: int
    n_min: int
    n_max: int
    nodes: int
    rho_constant: float
    cutoff: int | None
    seed: int
    out: Path
    samples: int

    def echo(self) -> dict:
        return {
            "potential": self.pot_spec, "bc": self.bc.value, "K": self.K,
            "n_min": self.n_min, "n_max": self.n_max, "nodes": self.nodes,
            "rho_constant": self.rho_constant, "cutoff": self.cutoff,
            "seed": self.seed, "samples": self.samples,
        }

    def levels(self) -> list[int]:
        return [n for n in range(self.n_min, self.n_max + 1) if self.bc.level_ok(n)]


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            merged.update(json.load(fh))
    for key in ("potential", "bc", "K", "n_min", "n_max", "nodes",
                "rho_constant", "cutoff", "seed", "out", "samples"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    spec = merged["potential"]
    trunc = 4 * int(merged["K"])
    if merged.get("cutoff"):
        trunc = max(trunc, 2 * int(merged["cutoff"]) + 2 * int(merged["n_max"]))
    else:
        trunc = max(trunc, 2 * max(8 * int(merged["n_max"]), 4096) + 2 * int(merged["n_max"]))
    try:
        if isinstance(spec, str):
            pot = parse_potential_arg(spec, default_truncation=trunc)
        else:
            pot = from_config(spec, default_truncation=trunc)
        bc = BoundaryCondition.parse(merged["bc"])
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(
        pot=pot, pot_spec=spec, bc=bc, K=int(merged["K"]),
        n_min=int(merged["n_min"]), n_max=int(merged["n_max"]),
        nodes=int(merged["nodes"]), rho_constant=float(merged["rho_constant"]),
        cutoff=int(merged["cutoff"]) if merged.get("cutoff") else None,
        seed=int(merged["seed"]), out=Path(merged["out"]),
        samples=int(merged["samples"]),
    )
    if cfg.n_min < 1 or cfg.n_max < cfg.n_min:
        raise ConfigError("need 1 <= n_min <= n_max")
    if not cfg.levels():
        raise ConfigError(f"no level in [{cfg.n_min}, {cfg.n_max}] matches {bc.value} parity")
    if cfg.K < 4 * cfg.n_max:
        raise ConfigError(f"K = {cfg.K} < 4*n_max = {4 * cfg.n_max}")
    if cfg.nodes < 16 or cfg.nodes % 2:
        raise ConfigError("nodes must be an even integer >= 16")
    return cfg


def _write_csv(path: Path, rows: list[list], cfg_echo: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# hillproj {__version__}\n")
        fh.write("# config: " + json.dumps(cfg_echo, sort_keys=True) + "\n")
        csv.writer(fh).writerows(rows)


def _write_json(path: Path, payload: dict, cfg_echo: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"version": __version__, "config": cfg_echo, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: RunConfig) -> int:
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    vals = np.sort_complex(H.eigenvalues())
    eig_rows = [["re", "im"]] + [[f"{z.real:.12e}", f"{z.imag:.12e}"] for z in vals]
    count_rows = [["n", "count", "expected", "ok"]]
    all_ok = True
    counts = []
    for n in cfg.levels():
        c = projector.eigen_count_in_disc(H, n)
        ok = c == cfg.bc.rank
        all_ok &= ok
        counts.append({"n": n, "count": c, "expected": cfg.bc.rank, "ok": ok})
        count_rows.append([n, c, cfg.bc.rank, int(ok)])
    echo = cfg.echo()
    _write_csv(cfg.out / "spectrum_eigenvalues.csv", eig_rows, echo)
    _write_csv(cfg.out / "spectrum_counts.csv", count_rows, echo)
    _write_json(cfg.out / "spectrum.json", {
        "eigenvalues": [[z.real, z.imag] for z in vals],
        "counts": counts, "all_ok": all_ok, "coverage": H.coverage,
    }, echo)
    return EXIT_OK if all_ok else EXIT_VERDICT


def _majorant_for(pot, bc: BoundaryCondition, K: int):
    if bc.is_periodic_family:
        return potential.majorant(pot)
    sp = pot if not isinstance(pot, FourierPotential) else potential.per_to_dir(pot, 2 * K)
    return potential.majorant_dir(sp)


def cmd_decay(cfg: RunConfig) -> int:
    if cfg.n_min < 2:  # the rate rho_n is defined for n >= 2 only
        raise ConfigError(f"decay needs n_min >= 2, got {cfg.n_min}")
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    r = _majorant_for(cfg.pot, cfg.bc, cfg.K)
    records, errors = [], {}
    for n in cfg.levels():
        try:
            pair = projector.riesz_projection(
                H, n, projector.ContourSpec.for_level(n, cfg.nodes))
            records.append(norms.decay_record(pair, r, cfg.rho_constant))
        except (projector.EigenvalueOnContour, projector.RankMismatch,
                projector.TruncationTooSmall,
                projector.IndexOutOfBasis) as exc:  # one bad level must not kill the sweep
            errors[str(n)] = f"{type(exc).__name__}: {exc}"
    echo = cfg.echo()
    _write_csv(cfg.out / "decay_records.csv", norms.records_to_csv_rows(records), echo)
    _write_json(cfg.out / "decay.json", {
        "records": json.loads(norms.records_to_json(records))["records"],
        "errors": errors,
    }, echo)
    if errors:
        print(f"decay: {len(errors)} level(s) failed: {sorted(errors)}", file=sys.stderr)
    unconverged = [rec.n for rec in records if not rec.converged]
    if unconverged:
        print(f"decay: quadrature did not converge at levels {unconverged}", file=sys.stderr)
    return EXIT_OK if records and not unconverged else EXIT_VERDICT


def _bounds_levels(cfg: RunConfig) -> list[int]:
    """Up to four log-spaced levels in range, parity-adjusted, all >= 4."""
    raw = np.geomspace(max(cfg.n_min, 4), max(cfg.n_max, 4), num=4)
    levels = []
    for x in raw:
        n = int(round(x))
        if cfg.bc.parity >= 0 and n % 2 != cfg.bc.parity:
            n += 1
        if n >= 4 and cfg.bc.level_ok(n) and n <= cfg.n_max + 1:
            levels.append(n)
    return sorted(set(levels))


def cmd_bounds(cfg: RunConfig) -> int:
    r = _majorant_for(cfg.pot, cfg.bc, cfg.K)
    step = 2 if cfg.bc.is_periodic_family else 1
    pot = cfg.pot if cfg.bc.is_periodic_family else None
    reports = []
    rows = [["n", "name", "note", "passed", "lhs", "rhs", "margin", "gated"]]
    ok = True
    for n in _bounds_levels(cfg):
        rep = bounds.lemma_suite(r, n, cfg.cutoff, potential=pot,
                                 rho_constant=cfg.rho_constant, step=step)
        max_tail = max(rep.tail_estimates.values(), default=0.0)
        rep.checks.append(bounds.CheckResult(
            "cutoff_converged", max_tail <= bounds.TAIL_RTOL, max_tail,
            bounds.TAIL_RTOL, "max relative tail estimate"))
        reports.append(rep)
        ok &= rep.all_passed
        for row in bounds.report_csv_rows(rep)[1:]:
            rows.append([n] + row)
    echo = cfg.echo()
    _write_csv(cfg.out / "bounds_checks.csv", rows, echo)
    _write_json(cfg.out / "bounds_report.json", {
        "reports": [json.loads(bounds.report_to_json(rep)) for rep in reports],
        "all_passed": ok,
    }, echo)
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_lpnorms(cfg: RunConfig) -> int:
    H = assemble(cfg.bc, cfg.pot, cfg.K)
    levels = projector.validated_levels(H, cfg.levels())
    picks = levels[:: max(1, len(levels) // 3)][:3]
    results = []
    ok = True
    for n in picks:
        pair = projector.riesz_projection(H, n, projector.ContourSpec.for_level(n, cfg.nodes))
        rep = norms.equivalence_check(pair, samples=cfg.samples, seed=cfg.seed)
        ok &= rep.passed
        results.append({"type": "level", **rep.__dict__})
    for N in (10, 20):
        if N > cfg.n_max or not levels:
            continue
        N0 = max(4, min(levels) - 2)
        if N <= N0:
            continue
        block = projector.block_projection(H, N0, N, nodes=cfg.nodes)
        rep = norms.sn_equivalence(block, H.basis, samples=cfg.samples, seed=cfg.seed)
        ok &= rep.passed
        results.append({"type": "block", **rep.__dict__})
    echo = cfg.echo()
    rows = [["type", "level", "samples", "max_ratio", "bound", "passed", "regime_ok"]]
    for res in results:
        rows.append([res["type"], res["level"], res["samples"],
                     f"{res['max_ratio']:.12e}", f"{res['bound']:.12e}",
                     int(res["passed"]), int(res["regime_ok"])])
    _write_csv(cfg.out / "lpnorms.csv", rows, echo)
    _write_json(cfg.out / "lpnorms.json", {"results": results, "all_passed": ok}, echo)
    return EXIT_OK if ok else EXIT_VERDICT


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

    # residue quadrature against the closed form
    for pname, pot in gallery.items():
        for bc in BoundaryCondition:
            for n in (8, 16):
                dev = projector.quadrature_vs_residue_check(pot, bc, n, 4 * n, nodes=64)
                add("residue", f"{pname}/{bc.value}/n={n}", dev, 1e-10)

    # projector algebra against the dense eigendecomposition
    for pname, pot in gallery.items():
        for bc in (BoundaryCondition.PER_PLUS, BoundaryCondition.DIRICHLET):
            H = assemble(bc, pot, 64)
            ns = [n for n in range(6, 15) if bc.level_ok(n)]
            for n in projector.validated_levels(H, ns):
                pair = projector.riesz_projection(H, n)
                add("algebra", f"{pname}/{bc.value}/n={n}/idempotency",
                    pair.idempotency, 1e-8)
                add("algebra", f"{pname}/{bc.value}/n={n}/trace",
                    abs(pair.trace - bc.rank), 1e-6)
                dense = projector.spectral_projector_dense(H, n)
                add("algebra", f"{pname}/{bc.value}/n={n}/vs_dense",
                    float(np.linalg.norm(pair.P - dense, "fro")), 1e-7)

    # decay trend on a short sweep
    for pname, pot in gallery.items():
        H = assemble(BoundaryCondition.PER_PLUS, pot, 96)
        r = potential.majorant(pot)
        sums = []
        for n in range(8, 25, 2):
            pair = projector.riesz_projection(H, n)
            sums.append(norms.decay_record(pair, r).sum_abs_B)
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
        srep = norms.sn_equivalence(block, H.basis, samples=100, M=4096, seed=seed)
        add("lpnorms", f"{pname}/S_8/ratio", srep.max_ratio, srep.bound)
    return rows


def cmd_verify(cfg: RunConfig) -> int:
    rows = _verify_rows(cfg.seed)
    ok = all(row["passed"] for row in rows)
    echo = {"seed": cfg.seed, "suite": "default-gallery"}
    csv_rows = [["stage", "name", "value", "tolerance", "passed", "note"]]
    for row in rows:
        csv_rows.append([row["stage"], row["name"], f"{row['value']:.12e}",
                         f"{row['tolerance']:.12e}", int(row["passed"]), row["note"]])
    _write_csv(cfg.out / "verify_checks.csv", csv_rows, echo)
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
        sp.add_argument("--potential",
                        help="gallery spec, e.g. mathieu:1.0, delta_comb:0.5, "
                             "sawtooth:1.0, zero, or file:<path.json>")
        sp.add_argument("--bc", help="per+, per- or dir")
        sp.add_argument("--K", type=int, help="basis half-width (>= 4*n_max)")
        sp.add_argument("--n-min", dest="n_min", type=int)
        sp.add_argument("--n-max", dest="n_max", type=int)
        sp.add_argument("--nodes", type=int, help="contour quadrature nodes")
        sp.add_argument("--rho-constant", dest="rho_constant", type=float)
        sp.add_argument("--cutoff", type=int, help="index cutoff for the sums")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--out", help="output directory")
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
    except (bounds.CutoffTooSmall, projector.EigenvalueOnContour,
            projector.RankMismatch) as exc:
        print(f"verdict failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
