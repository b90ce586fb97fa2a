"""The benchmark's workloads: one ``hillproj`` CLI run each.

Every workload names the CLI arguments it runs, the parameters the
set-up probe and the oracle checks need, and why it was chosen.  The
benchmark seed is passed to every run as ``--seed``; only ``verify``
reads it (for its L^p sampling), which ``reads_seed`` records.

This module imports nothing from hillproj, so the set-up probe can load
it before it starts its clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "decay", "bounds" or "verify": selects the checks
    params: dict = field(default_factory=dict)
    reads_seed: bool = False
    why: str = ""

    def argv(self) -> list[str]:
        """CLI arguments, without --seed and --out."""
        p = self.params
        if self.kind == "verify":
            return ["verify"]
        args = [self.kind, "--potential", p["potential"], "--bc", p["bc"],
                "--K", str(p["K"]), "--n-min", str(p["n_min"]),
                "--n-max", str(p["n_max"])]
        if p.get("cutoff"):
            args += ["--cutoff", str(p["cutoff"])]
        return args

    def truncation(self) -> int:
        """Stored coefficient count the CLI chooses for these flags."""
        p = self.params
        trunc = 4 * p["K"]
        if p.get("cutoff"):
            return max(trunc, 2 * p["cutoff"] + 2 * p["n_max"])
        return max(trunc, 2 * max(8 * p["n_max"], 4096) + 2 * p["n_max"])

    def levels(self) -> list[int]:
        """Levels a decay sweep computes: n in range with the bc's parity."""
        p = self.params
        parity = {"per+": 0, "per-": 1}.get(p["bc"])
        return [n for n in range(p["n_min"], p["n_max"] + 1)
                if parity is None or n % 2 == parity]


WORKLOADS = {w.name: w for w in (
    Workload(
        "decay-per", "decay",
        {"potential": "delta_comb:0.5", "bc": "per+", "K": 256,
         "n_min": 10, "n_max": 60},
        why="26 levels of contour quadrature on a 257x257 matrix, 64 nodes "
            "each: the projector layer takes almost all of the time"),
    Workload(
        "decay-dir", "decay",
        {"potential": "mathieu:1.0", "bc": "dir", "K": 128,
         "n_min": 8, "n_max": 32},
        why="the projector used differently: rank 1, 128 nodes per level, "
            "sine basis and per_to_dir"),
    Workload(
        "bounds-delta", "bounds",
        {"potential": "delta_comb:0.5", "bc": "per+", "K": 512,
         "n_min": 8, "n_max": 128, "cutoff": 4096},
        why="dense cutoff x cutoff chain-sum tables of lemma_suite; the "
            "projector is idle"),
    Workload(
        "verify", "verify", {}, reads_seed=True,
        why="many small projections and every property suite: per-call "
            "overhead, rectangle contours and L^p sampling"),
)}
