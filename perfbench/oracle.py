"""Correctness checks on the CLI's outputs, made outside the timed region.

Each check turns one run's output directory into a ``LevelReport``: the
outcome of every level the run attempted (``None`` when it passed, else
why it failed) and the problems that make the output wrong.

A level fails if it raised, if the program's own verdict for it failed,
or if the benchmark's oracle rejects its numbers.  A failed verdict is a
result, not a wrong output: ``bounds-delta`` fails ``cutoff_converged``
at two of its four levels and its output is still correct.  Everything
else that fails a level is also a problem.

Each oracle takes a route independent of the computation it checks:

* decay: ``sum_abs_B``, ``frob`` and ``t_n`` are recomputed from the dense
  eigendecomposition projector minus the free projection;
* bounds: ``sigma[s=1]`` is recomputed by a direct O(cutoff) sum of the
  delta comb's majorant ``r(m) = M/(pi |m|)``;
* verify: the run must pass every check, and repeated runs with one seed
  must write identical bytes (checked by ``Checker``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-6  # decay norms against the dense oracle; the CSV keeps 13 digits
SIGMA_RTOL = 1e-11  # sigma[s=1] against the compensated direct sum


@dataclass
class LevelReport:
    levels: dict = field(default_factory=dict)  # label -> failure reason or None
    problems: list = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for reason in self.levels.values() if reason is None)

    @property
    def attempted(self) -> int:
        return len(self.levels)


def fail_frac(levels: dict) -> float:
    """Failed levels over attempted levels (a run with no levels fails)."""
    if not levels:
        return 1.0
    return sum(1 for reason in levels.values() if reason is not None) / len(levels)


def read_csv(path: Path) -> list[dict]:
    """Rows of a CLI CSV, skipping its comment lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * abs(ref) + 1e-14


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

class DenseDecayOracle:
    """Norms of B(n) from the dense eigendecomposition projector."""

    def __init__(self, workload):
        self.workload = workload
        self._H = None

    def matrix(self):
        if self._H is None:
            from hillproj import operator, potential

            p = self.workload.params
            pot = potential.parse_potential_arg(
                p["potential"], default_truncation=self.workload.truncation())
            self._H = operator.assemble(operator.BoundaryCondition.parse(p["bc"]),
                                        pot, p["K"])
        return self._H

    def __call__(self, n: int) -> dict:
        import numpy as np
        from hillproj import projector

        H = self.matrix()
        B = projector.spectral_projector_dense(H, n) - projector.free_projection(H.basis, n)
        return {"sum_abs_B": float(np.abs(B).sum()),
                "frob": float(np.linalg.norm(B, "fro")),
                "t_n": float(np.linalg.norm(B, 2))}


def check_decay(out_dir: Path, returncode: int, workload, oracle) -> LevelReport:
    rep = LevelReport()
    if returncode != 0:
        rep.problems.append(f"exit code {returncode}")
    errors = json.loads((out_dir / "decay.json").read_text())["errors"]
    if errors:
        rep.problems.append(f"errors map not empty: {sorted(errors)}")
    rows = {int(row["n"]): row for row in read_csv(out_dir / "decay_records.csv")}
    for n in workload.levels():
        if str(n) in errors:
            rep.levels[n] = f"raised: {errors[str(n)]}"
        elif n not in rows:
            rep.levels[n] = "missing from decay_records.csv"
            rep.problems.append(f"n={n}: missing from decay_records.csv")
        else:
            ref = oracle(n)
            bad = [f"{key} {rows[n][key]} vs {ref[key]:.12e}" for key in ref
                   if not _close(float(rows[n][key]), ref[key], RTOL)]
            rep.levels[n] = f"oracle: {', '.join(bad)}" if bad else None
            if bad:
                rep.problems.append(f"n={n}: oracle rejects {', '.join(bad)}")
    return rep


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def delta_comb_mass(spec: str) -> float:
    kind, _, param = spec.partition(":")
    if kind != "delta_comb":
        raise ValueError(f"the sigma oracle needs a delta comb, not {spec!r}")
    return float(param) if param else 1.0


def sigma1_direct(mass: float, n: int, cutoff: int, r_max_index: int) -> float:
    """sigma(n, 1) = sum_j r(|n + j|) / |n - j| over j = n (mod 2), |j| <= cutoff,
    j != +-n, for the delta comb's majorant r(m) = mass / (pi |m|), m != 0."""
    terms = []
    for j in range(-cutoff, cutoff + 1):
        if (j - n) % 2 or j in (n, -n):
            continue
        m = abs(n + j)
        if 0 < m <= r_max_index:
            terms.append(mass / (math.pi * m) / abs(n - j))
    return math.fsum(terms)


def check_bounds(out_dir: Path, returncode: int, workload) -> LevelReport:
    rep = LevelReport()
    mass = delta_comb_mass(workload.params["potential"])
    verdicts: dict[int, list[str]] = {}
    for row in read_csv(out_dir / "bounds_checks.csv"):
        failed = verdicts.setdefault(int(row["n"]), [])
        if row["passed"] != "1":
            failed.append(row["name"])
    reports = json.loads((out_dir / "bounds_report.json").read_text())["reports"]
    by_n = {r["inputs"]["n"]: r for r in reports}
    if not verdicts or set(verdicts) != set(by_n):
        rep.problems.append(f"levels differ: csv {sorted(verdicts)}, json {sorted(by_n)}")
    any_failed = any(verdicts.values())
    if returncode != (1 if any_failed else 0):
        rep.problems.append(f"exit code {returncode} with failed verdicts={any_failed}")
    for n in sorted(verdicts):
        reasons = []
        if verdicts[n]:
            reasons.append("verdict failed: " + ", ".join(sorted(set(verdicts[n]))))
        if n in by_n:
            inp = by_n[n]["inputs"]
            ref = sigma1_direct(mass, n, inp["cutoff"], inp["r_max_index"])
            got = by_n[n]["sigma"]["1"]
            if not _close(got, ref, SIGMA_RTOL):
                reasons.append(f"oracle: sigma[s=1] {got!r} vs {ref!r}")
                rep.problems.append(f"n={n}: sigma[s=1] {got!r} vs direct {ref!r}")
        rep.levels[n] = "; ".join(reasons) or None
    return rep


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(out_dir: Path, returncode: int) -> LevelReport:
    rep = LevelReport()
    if returncode != 0:
        rep.problems.append(f"exit code {returncode}")
    for row in read_csv(out_dir / "verify_checks.csv"):
        label = f"{row['stage']}:{row['name']}"
        rep.levels[label] = None if row["passed"] == "1" else (
            f"verdict failed: value {row['value']} > tolerance {row['tolerance']}")
    if not rep.levels:
        rep.problems.append("verify_checks.csv has no checks")
    return rep


# ---------------------------------------------------------------------------
# a run's outputs
# ---------------------------------------------------------------------------

class Checker:
    """Checks the outputs of repeated runs of one workload and seed.

    Repeated runs must write identical bytes, so each distinct output is
    analysed once.
    """

    def __init__(self, workload):
        self.workload = workload
        self.decay_oracle = DenseDecayOracle(workload) if workload.kind == "decay" else None
        self._seen: dict = {}
        self.first_digest = None

    def check(self, out_dir: Path, returncode, error: str | None = None) -> LevelReport:
        if error is not None or returncode is None:
            return LevelReport({"run": f"raised: {error}"}, [f"run raised: {error}"])
        try:
            digest = output_digest(out_dir)
            if (digest, returncode) not in self._seen:
                self._seen[digest, returncode] = self._analyse(Path(out_dir), returncode)
            rep = self._seen[digest, returncode]
        except (OSError, KeyError, ValueError) as exc:
            return LevelReport({"run": f"unreadable output: {exc!r}"},
                               [f"exit code {returncode}, unreadable output: {exc!r}"])
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return LevelReport(rep.levels, rep.problems + ["output differs from the first run"])
        return rep

    def _analyse(self, out_dir: Path, returncode: int) -> LevelReport:
        if self.workload.kind == "decay":
            return check_decay(out_dir, returncode, self.workload, self.decay_oracle)
        if self.workload.kind == "bounds":
            return check_bounds(out_dir, returncode, self.workload)
        return check_verify(out_dir, returncode)
