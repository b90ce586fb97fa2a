"""Deviation-matrix norms, grid synthesis, and L^p-equivalence checks.

The deviation matrix B(n) = P_n - P_n^0 is measured in three finite-
section norms, chained as ||B||_2 <= ||B||_F <= sum |B_km|:

* ``sum_abs_B``: the entrywise absolute sum, the working proxy for the
  L^1 -> L^infinity operator norm (exact operator norms on the infinite
  spaces are out of reach; every claim here is at truncation);
* ``t_n``: the spectral norm, i.e. the L^2 -> L^2 deviation;
* ``frob``: the Frobenius norm.

The L^1 -> L^infinity proxy carries the basis constant D = sup |e_k|:
D = 1 for the exponential bases, sqrt(2) for the sine basis, entering as
D^2 * sum_abs_B.

Norm conventions on [0, pi]: ``lp_norms`` returns plain Lebesgue values
(integral of |f|, its square root analogue, and the grid max).  The
equivalence ratios, however, use the mean-normalized L^1 norm
(1/pi) int |f| dx -- the normalization under which the Fourier
coefficients satisfy |f_k| <= D ||f||_1 and the constant-3 comparison on
the Riesz subspaces is meaningful.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds as _bounds
from .operator import BasisSpec, BoundaryCondition
from .potential import MajorantSeq
from .projector import BlockProjection, ProjectionPair

__all__ = [
    "TooFewRecords",
    "DecayRecord",
    "GridFunction",
    "basis_sup_constant",
    "decay_record",
    "spectral_norm",
    "bari_markus_partial",
    "BariMarkusReport",
    "synthesize",
    "lp_norms",
    "equivalence_check",
    "sn_equivalence",
    "EquivalenceReport",
    "records_to_csv_rows",
    "records_to_json",
    "DECAY_CSV_COLUMNS",
]


class TooFewRecords(ValueError):
    """Not enough per-level records for a tail diagnostic."""


def basis_sup_constant(bc: BoundaryCondition) -> float:
    """D = sup_x |e_k(x)|: 1 for exponentials, sqrt(2) for sines."""
    return bc.basis_sup


@dataclass(frozen=True)
class DecayRecord:
    """Per-level norms of B(n) next to the analytic rate values.

    The last four fields are the quadrature evidence of the projection:
    they go into the JSON records but not into the frozen CSV columns.
    """

    n: int
    sum_abs_B: float
    l1_linf_bound: float
    t_n: float
    frob: float
    rho_n: float
    eps_n: float
    kappa_n: float
    bound64: float
    bound_valid: bool
    quad_error_est: float
    nodes_used: int
    idempotency: float
    converged: bool

    def __post_init__(self):
        if not (self.t_n <= self.frob + 1e-12 and self.frob <= self.sum_abs_B + 1e-12):
            raise ValueError("norm chain t_n <= frob <= sum_abs_B violated")


DECAY_CSV_COLUMNS = ["n", "sum_abs_B", "l1_linf_bound", "t_n", "frob",
                     "rho_n", "eps_n", "kappa_n", "bound64", "bound_valid"]


def spectral_norm(B: np.ndarray) -> float:
    """Largest singular value."""
    if B.size == 0:
        return 0.0
    return float(np.linalg.norm(B, 2))


def decay_record(pair: ProjectionPair, r: MajorantSeq,
                 rho_constant: float = 8.0) -> DecayRecord:
    """Measure B(n) and attach the analytic rates for the same level."""
    B = pair.B
    sab = float(np.abs(B).sum())
    d = basis_sup_constant(pair.bc)
    rho, eps, kappa, bound64, valid = _bounds.kappa_for(r, pair.n, rho_constant)
    return DecayRecord(
        n=pair.n,
        sum_abs_B=sab,
        l1_linf_bound=d * d * sab,
        t_n=spectral_norm(B),
        frob=float(np.linalg.norm(B, "fro")),
        rho_n=rho, eps_n=eps, kappa_n=kappa, bound64=bound64, bound_valid=valid,
        quad_error_est=pair.quad_error_est, nodes_used=pair.nodes_used,
        idempotency=pair.idempotency, converged=pair.converged,
    )


@dataclass(frozen=True)
class BariMarkusReport:
    total: float
    partial_sums: tuple
    last_quarter_share: float


def bari_markus_partial(t_values) -> BariMarkusReport:
    """Partial sums of t_n^2 with a tail-flattening diagnostic.

    Accepts DecayRecords or raw t_n values (in increasing-n order) and
    reports the share of the last quarter of terms in the total; a share
    near zero is the square-summability signature.
    """
    ts = [rec.t_n if isinstance(rec, DecayRecord) else float(rec) for rec in t_values]
    if len(ts) < 8:
        raise TooFewRecords("need at least 8 records")
    sq = np.array(ts) ** 2
    partial = np.cumsum(sq)
    total = float(partial[-1])
    tail = float(sq[-(len(ts) // 4):].sum())
    share = tail / total if total > 0 else 0.0
    return BariMarkusReport(total=total, partial_sums=tuple(partial), last_quarter_share=share)


# ---------------------------------------------------------------------------
# grid synthesis and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Samples on M equispaced points of [0, pi] (endpoints included)."""

    values: np.ndarray
    M: int

    def __post_init__(self):
        if len(self.values) != self.M:
            raise ValueError("values length must equal M")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.M)


def _basis_grid(basis: BasisSpec, M: int) -> np.ndarray:
    """M x size matrix of basis functions sampled on the grid."""
    xs = np.linspace(0.0, math.pi, M)
    idx = np.array(basis.indices, dtype=float)
    if basis.bc.is_periodic_family:
        return np.exp(1j * np.outer(xs, idx))
    return math.sqrt(2.0) * np.sin(np.outer(xs, idx))


def synthesize(basis: BasisSpec, coeffs, M: int = 8192) -> GridFunction:
    """Pointwise sum of coefficients against the basis on the grid.

    ``coeffs`` is either a vector aligned with ``basis.indices`` or a
    mapping index -> coefficient.
    """
    if isinstance(coeffs, dict):
        vec = np.zeros(basis.size, dtype=complex)
        for k, c in coeffs.items():
            vec[basis.position(k)] = c
    else:
        vec = np.asarray(coeffs, dtype=complex)
        if vec.shape != (basis.size,):
            raise ValueError("coefficient vector does not match the basis")
    return GridFunction(values=_basis_grid(basis, M) @ vec, M=M)


def _trapezoid_weights(M: int) -> np.ndarray:
    w = np.full(M, math.pi / (M - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def lp_norms(f: GridFunction) -> tuple[float, float, float]:
    """(L^1, L^2, L^inf) on [0, pi]: composite trapezoid, exact grid max."""
    if f.M < 1024:
        raise ValueError("norm evaluation needs M >= 1024")
    w = _trapezoid_weights(f.M)
    a = np.abs(f.values)
    return float(w @ a), float(math.sqrt(w @ (a * a))), float(a.max())


# ---------------------------------------------------------------------------
# equivalence of norms on the Riesz subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Empirical sup of pi * ||f||_inf / ||f||_1 over sampled f in a range."""

    level: int
    samples: int
    max_ratio: float
    bound: float
    passed: bool
    regime_ok: bool
    proxy: float
    seed: int
    grid: int
    note: str = ""


def _sample_ratios(P: np.ndarray, basis: BasisSpec, samples: int, M: int,
                   seed: int) -> float:
    rng = np.random.default_rng(seed)
    dim = basis.size
    g = rng.standard_normal((dim, samples)) + 1j * rng.standard_normal((dim, samples))
    coeffs = P @ g
    keep = np.linalg.norm(coeffs, axis=0) > 1e-12
    coeffs = coeffs[:, keep]
    vals = _basis_grid(basis, M) @ coeffs
    w = _trapezoid_weights(M)
    l1 = w @ np.abs(vals)
    linf = np.abs(vals).max(axis=0)
    # mean-normalized L^1: ratio = ||f||_inf / ((1/pi) ||f||_1)
    return float((math.pi * linf / l1).max())


def equivalence_check(pair: ProjectionPair, samples: int = 1000, M: int = 8192,
                      seed: int = 20240801) -> EquivalenceReport:
    """Sup-versus-mean-L^1 comparison for random elements of Ran P_n.

    In the regime where the deviation proxy D^2 sum|B| is at most 1/2 the
    ratio must stay below 3 (plus grid slack); outside the regime the
    report flags ``regime_ok = False`` instead of failing.
    """
    d = basis_sup_constant(pair.bc)
    proxy = d * d * float(np.abs(pair.B).sum())
    regime_ok = proxy <= 0.5
    ratio = _sample_ratios(pair.P, pair.basis, samples, M, seed)
    bound = 3.0 + 0.05
    return EquivalenceReport(
        level=pair.n, samples=samples, max_ratio=ratio, bound=bound,
        passed=(ratio <= bound) if regime_ok else True,
        regime_ok=regime_ok, proxy=proxy, seed=seed, grid=M,
        note="" if regime_ok else "deviation proxy above 1/2; bound not asserted",
    )


def sn_equivalence(block: BlockProjection, basis: BasisSpec, samples: int = 200,
                   M: int = 8192, seed: int = 20240801) -> EquivalenceReport:
    """Same comparison for Ran S_N against the 50 N ln N envelope.

    Alongside random samples, an explicit near-extremal trial (all basis
    coefficients equal, the concentrated spike) is always included.
    """
    N = block.N
    ratio = _sample_ratios(block.S, basis, samples, M, seed)
    spike = np.array([1.0 if k * k < N * N + N else 0.0 for k in basis.indices],
                     dtype=complex)
    coeffs = block.S @ spike
    if np.linalg.norm(coeffs) > 1e-12:
        f = synthesize(basis, coeffs, M)
        l1, _, linf = lp_norms(f)
        ratio = max(ratio, math.pi * linf / l1)
    bound = 50.0 * N * math.log(N)
    return EquivalenceReport(
        level=N, samples=samples + 1, max_ratio=ratio, bound=bound,
        passed=ratio <= bound, regime_ok=True, proxy=float("nan"),
        seed=seed, grid=M, note="block projection",
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def records_to_csv_rows(records) -> list[list]:
    rows = [list(DECAY_CSV_COLUMNS)]
    for rec in records:
        rows.append([rec.n, f"{rec.sum_abs_B:.12e}", f"{rec.l1_linf_bound:.12e}",
                     f"{rec.t_n:.12e}", f"{rec.frob:.12e}", f"{rec.rho_n:.12e}",
                     f"{rec.eps_n:.12e}", f"{rec.kappa_n:.12e}",
                     f"{rec.bound64:.12e}", int(rec.bound_valid)])
    return rows


def records_to_json(records, meta: dict | None = None) -> str:
    payload = {
        "meta": meta or {},
        "records": [asdict(rec) for rec in records],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
