"""Deviation-matrix norms and L^p-equivalence checks.

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

The L^p-equivalence checks compare pi ||f||_inf / ||f||_1 on an M-point
grid of [0, pi]: the grid max against the composite-trapezoid integral of
|f|, i.e. the sup against the mean-normalized L^1 norm (1/pi) int |f| dx,
the normalization under which the Fourier coefficients satisfy
|f_k| <= D ||f||_1 and the constant-3 comparison on the Riesz subspaces
is meaningful.  One sampler, ``_max_ratio``, evaluates every such ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .operator import BasisSpec
from .potential import MajorantSeq
from .projector import ProjectionPair

__all__ = [
    "DecayRecord",
    "decay_record",
    "equivalence_check",
    "sn_equivalence",
    "EquivalenceReport",
    "DECAY_CSV_COLUMNS",
]


@dataclass(frozen=True)
class DecayRecord:
    """Per-level norms of B(n) next to the analytic rate values.

    The last eight fields are the quadrature evidence of the projection:
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
    radius: float  # of the integration circle
    rate: float  # a priori per-node decay of the quadrature error
    nodes_used: int
    idempotency: float
    converged: bool
    trace_defect: float
    guard_margin: float

    def __post_init__(self):
        if not (self.t_n <= self.frob + 1e-12 and self.frob <= self.sum_abs_B + 1e-12):
            raise ValueError("norm chain t_n <= frob <= sum_abs_B violated")


DECAY_CSV_COLUMNS = ["n", "sum_abs_B", "l1_linf_bound", "t_n", "frob",
                     "rho_n", "eps_n", "kappa_n", "bound64", "bound_valid"]


def decay_record(pair: ProjectionPair, r: MajorantSeq,
                 rho_constant: float = 8.0) -> DecayRecord:
    """Measure B(n) and attach the analytic rates for the same level."""
    sab = pair.sum_abs_B
    d = pair.bc.basis_sup
    rho, eps, kappa, bound64, valid = _bounds.kappa_for(r, pair.n, rho_constant)
    return DecayRecord(
        n=pair.n,
        sum_abs_B=sab,
        l1_linf_bound=d * d * sab,
        t_n=pair.t_n,
        frob=pair.frob,
        rho_n=rho, eps_n=eps, kappa_n=kappa, bound64=bound64, bound_valid=valid,
        quad_error_est=pair.quad_error_est, radius=pair.radius, rate=pair.rate,
        nodes_used=pair.nodes_used,
        idempotency=pair.idempotency, converged=pair.converged,
        trace_defect=pair.trace_defect, guard_margin=pair.guard_margin,
    )


# ---------------------------------------------------------------------------
# equivalence of norms on the Riesz subspaces
# ---------------------------------------------------------------------------

_COL_BLOCK = 32  # columns per block of ``_max_ratio``: O(_COL_BLOCK * M) memory


def _basis_grid(basis: BasisSpec, M: int) -> np.ndarray:
    """M x size matrix of basis functions on the grid, complex for every basis."""
    xs = np.linspace(0.0, math.pi, M)
    idx = np.array(basis.indices, dtype=float)
    if basis.bc.is_periodic_family:
        return np.exp(1j * np.outer(xs, idx))
    return (math.sqrt(2.0) * np.sin(np.outer(xs, idx))).astype(complex)


def _trapezoid_weights(M: int) -> np.ndarray:
    w = np.full(M, math.pi / (M - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _draws(basis: BasisSpec, samples: int, seed: int) -> np.ndarray:
    """size x samples standard complex Gaussian coefficient columns."""
    rng = np.random.default_rng(seed)
    shape = (basis.size, samples)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _max_ratio(basis: BasisSpec, coeffs: np.ndarray, M: int) -> float:
    """Max of pi ||f||_inf / ||f||_1 over the nonzero columns of ``coeffs``
    (coefficients of f against ``basis.indices``), with f on M equispaced
    points of [0, pi]: the grid max over the composite trapezoid L^1."""
    if M < 1024:
        raise ValueError("norm evaluation needs M >= 1024")
    coeffs = coeffs[:, np.linalg.norm(coeffs, axis=0) > 1e-12]
    if not coeffs.shape[1]:
        raise ValueError("every coefficient column is zero")
    grid = _basis_grid(basis, M)
    w = _trapezoid_weights(M)
    best = []
    for j in range(0, coeffs.shape[1], _COL_BLOCK):
        mod = np.abs(grid @ coeffs[:, j:j + _COL_BLOCK])
        best.append((math.pi * mod.max(axis=0) / (w @ mod)).max())
    return float(max(best))


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


def equivalence_check(pair: ProjectionPair, samples: int = 1000, M: int = 8192,
                      seed: int = 20240801) -> EquivalenceReport:
    """Sup-versus-mean-L^1 comparison for random elements of Ran P_n.

    In the regime where the deviation proxy D^2 sum|B| is at most 1/2 the
    ratio must stay below 3 (plus grid slack); outside the regime the
    report flags ``regime_ok = False`` instead of failing.
    """
    d = pair.bc.basis_sup
    proxy = d * d * pair.sum_abs_B
    regime_ok = proxy <= 0.5
    g = _draws(pair.basis, samples, seed)
    ratio = _max_ratio(pair.basis, pair.X @ (pair.Y.T @ g), M)
    bound = 3.0 + 0.05
    return EquivalenceReport(
        level=pair.n, samples=samples, max_ratio=ratio, bound=bound,
        passed=(ratio <= bound) if regime_ok else True,
        regime_ok=regime_ok, proxy=proxy, seed=seed, grid=M,
        note="" if regime_ok else "deviation proxy above 1/2; bound not asserted",
    )


def sn_equivalence(block: ProjectionPair, samples: int = 200, M: int = 8192,
                   seed: int = 20240801) -> EquivalenceReport:
    """Same comparison for Ran S_N (``block_projection``) against 50 N ln N.

    Alongside random samples, an explicit near-extremal trial (every
    coefficient of the block's columns equal, the concentrated spike) is
    always included, as the last column.
    """
    N, basis, X, Y = block.n, block.basis, block.X, block.Y
    spike = np.zeros((basis.size, 1))
    spike[block.cols] = 1.0
    g = np.hstack([_draws(basis, samples, seed), spike])
    ratio = _max_ratio(basis, X @ (Y.T @ g), M)
    bound = 50.0 * N * math.log(N)
    return EquivalenceReport(
        level=N, samples=samples + 1, max_ratio=ratio, bound=bound,
        passed=ratio <= bound, regime_ok=True, proxy=float("nan"),
        seed=seed, grid=M, note="block projection",
    )
