"""Spans around hillproj's public functions, and the traced run.

``Tracer.install`` replaces every public module-level function of the six
hillproj modules, wherever those modules hold a reference to it (so names
``cli`` imports directly, such as ``cli.assemble``, are covered), plus
``HillMatrix.eig`` and ``ProjectionPair.__post_init__``.  Each call
records a span (name, start, end, parent) in memory; a few wrappers also
read counts from the return value.  Nothing under ``src/`` changes.

``projector.first_order_residue`` is left unwrapped: it runs once per
matrix entry inside ``quadrature_vs_residue_check``, whose span keeps its
time.

The traced run alternates untraced and traced in-process calls of
``hillproj.cli.main`` until ``--seconds`` have passed (at least one of
each) and prints one JSON line with every pass:

    PYTHONPATH=src python3 perfbench/tracer.py --workload decay-dir \\
        --seed 1 --seconds 10 --out .perfbench_out/trace
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

MODULES = ("potential", "operator", "projector", "norms", "bounds", "cli")
METHODS = (("operator", "HillMatrix", "eig"),
           ("projector", "ProjectionPair", "__post_init__"))
UNWRAPPED = frozenset({"projector.first_order_residue"})
PEAK_MEMORY = frozenset({"bounds.lemma_suite"})  # tracemalloc around these calls
BUILDERS = ("potential.parse_potential_arg", "potential.from_config",
            "potential.from_coeffs", "potential.zero", "potential.mathieu",
            "potential.delta_comb", "potential.sawtooth")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the calling span
    info: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# counts read at the layer boundaries
# ---------------------------------------------------------------------------

def _before_eig(args, kwargs) -> dict:
    # HillMatrix caches its eigendecomposition; count the calls that compute it
    return {"computes": getattr(args[0], "_eig", None) is None}


def _after_riesz(args, kwargs, pair) -> dict:
    contour = kwargs.get("contour", args[2] if len(args) > 2 else None)
    start = contour.nodes if contour is not None else 64
    return {"nodes_used": pair.nodes_used,
            "doublings": round(math.log2(pair.nodes_used / start)),
            "converged": pair.quad_error_est < kwargs.get("tol", 1e-10)}


def _after_assemble(args, kwargs, H) -> dict:
    return {"basis_size": H.size}


def _after_lemma_suite(args, kwargs, report) -> dict:
    # the CLI appends cutoff_converged after the call: read the checks at the end
    return {"report": report}


BEFORE = {"operator.HillMatrix.eig": _before_eig}
AFTER = {"projector.riesz_projection": _after_riesz,
         "operator.assemble": _after_assemble,
         "bounds.lemma_suite": _after_lemma_suite}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            if before:
                span.info.update(before(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if peak:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if after:
                span.info.update(after(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import hillproj

        mods = {m: importlib.import_module(f"hillproj.{m}") for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for attr, val in vars(mod).items():
                name = f"{m}.{attr}"
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[val] = self.wrap(val, name)
        for mod in (hillproj, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for m, cls, meth in METHODS:
            owner = getattr(mods[m], cls)
            self._patch(owner, meth, self.wrap(owner.__dict__[meth], f"{m}.{cls}.{meth}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def inclusive(spans: list[Span], names) -> float:
    """Summed duration of the spans named in ``names`` that no other such span encloses."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.duration
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass of the CLI."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_of(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    m = {f"{mod}.self_s": sum(t for s, t in zip(spans, selfs) if s.module == mod)
         for mod in MODULES}
    riesz = named("projector.riesz_projection")
    m["projector.riesz_s"] = self_of("projector.riesz_projection")
    m["projector.level_s.p50"] = percentile([s.duration for s in riesz], 0.5)
    m["projector.level_s.p90"] = percentile([s.duration for s in riesz], 0.9)
    m["projector.solves"] = sum(s.info["nodes_used"] for s in riesz)
    m["projector.doublings"] = sum(s.info["doublings"] for s in riesz)
    m["projector.converged_frac"] = (
        sum(s.info["converged"] for s in riesz) / len(riesz) if riesz else 1.0)
    m["projector.pair_check_s"] = inclusive(spans, ["projector.ProjectionPair.__post_init__"])
    m["projector.rect_s"] = inclusive(spans, ["projector.rectangle_projection"])
    m["projector.residue_check_s"] = inclusive(spans, ["projector.quadrature_vs_residue_check"])
    m["projector.dense_oracle_s"] = inclusive(spans, ["projector.spectral_projector_dense"])
    m["operator.assemble_s"] = inclusive(spans, ["operator.assemble"])
    m["operator.eig_s"] = inclusive(spans, ["operator.HillMatrix.eig"])
    m["operator.eig_calls"] = sum(s.info["computes"] for s in named("operator.HillMatrix.eig"))
    m["operator.basis_size"] = max((s.info["basis_size"] for s in named("operator.assemble")),
                                   default=0)
    m["norms.decay_record_s"] = inclusive(spans, ["norms.decay_record"])
    m["norms.equivalence_s"] = inclusive(spans, ["norms.equivalence_check",
                                                 "norms.sn_equivalence"])
    suites = named("bounds.lemma_suite")
    reports = [s.info["report"] for s in suites]
    m["bounds.lemma_suite_s"] = inclusive(spans, ["bounds.lemma_suite"])
    m["bounds.lemma_suite_peak_mb"] = max((s.info["peak_bytes"] for s in suites),
                                          default=0) / 2 ** 20
    m["bounds.kappa_for_s"] = inclusive(spans, ["bounds.kappa_for"])
    m["bounds.tail_max"] = max((max(r.tail_estimates.values(), default=0.0)
                                for r in reports), default=0.0)
    m["bounds.checks_failed"] = sum(len(r.failed()) for r in reports)
    m["potential.build_s"] = inclusive(spans, BUILDERS)
    m["potential.majorant_s"] = inclusive(spans, ["potential.majorant",
                                                  "potential.majorant_dir"])
    m["potential.per_to_dir_s"] = inclusive(spans, ["potential.per_to_dir"])
    m["trace.wall_s"] = wall_s
    m["trace.unaccounted_s"] = wall_s - sum(selfs)
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_pass(argv: list[str], traced: bool) -> dict:
    from hillproj import cli

    tracer = Tracer()
    if traced:
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed pass, reported with its traceback
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    tracer.uninstall()
    result = {"traced": traced, "returncode": code, "error": error, "wall_s": wall}
    if traced:
        result["metrics"] = layer_metrics(tracer.spans, wall)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    argv = WORKLOADS[args.workload].argv() + ["--seed", str(args.seed)]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        for traced in (False, True):
            out = args.out / f"pass{len(passes)}"
            passes.append({"out": str(out), **run_pass(argv + ["--out", str(out)], traced)})
    print(json.dumps({"passes": passes}))


def summarize(passes: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead against the untraced passes."""
    traced = [p["metrics"] for p in passes if p["traced"]]
    m = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    m["trace.untraced_s"] = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_s"]
    return m


if __name__ == "__main__":
    sys.exit(main())
