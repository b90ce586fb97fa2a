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

The L^p-equivalence checks compare pi ||f||_inf / ||f||_1 on x_j = pi j / M,
j = 0..M: the grid max against the composite-trapezoid integral of |f|,
i.e. the sup against the mean-normalized L^1 norm (1/pi) int |f| dx, the
normalization under which the Fourier coefficients satisfy |f_k| <= D ||f||_1
and the constant-3 comparison on the Riesz subspaces is meaningful.

The samples are f = X W for the factors P = X Y^T of a projection: W has
the law of Y^T g for standard complex Gaussian g, drawn in the q columns
of Y as R^H h, R the triangular factor of conj(Y) (``_draws``), so the
draws do not grow with the basis size.  One sampler, ``_max_ratio``,
evaluates every such ratio from short inverse FFTs of the columns of X
over the cosets of the grid, one per phase (half the phases for the sine
basis, by its odd symmetry), and one product with W per block of samples.
X W is never held whole: the memory past the factors is independent of
the grid M, the basis size and the sample count.
"""

from __future__ import annotations

import math
import random
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
    ``quad_error_est`` estimates ||X Y^T - P||_F only, so it is no error
    bar for ``sum_abs_B``: that sum adds N^2 entries of B and can move by
    up to N ||Delta P||_F (Cauchy-Schwarz); at K = 4096 it moved by 0.96
    of the estimate.
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

_BLOCK_VALUES = 2 ** 14  # values of f per block of the sampler


def _draws(Y: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """q x samples columns with the law of W = Y^T g, for g the size x
    samples standard complex Gaussian columns (size x q Y), drawn in q
    dimensions whatever the size.

    g is circular with E g g^H = 2 I, so W is circular complex Gaussian
    with covariance 2 Y^T conj(Y) = 2 R^H R, R the q x q factor of the thin
    QR of conj(Y): W = R^H h for h the q x samples standard complex
    Gaussian has the same law.  QR, unlike Cholesky, also takes a rank-
    deficient Y.  h is drawn from ``random.Random(seed)``: entry (i, c)
    takes the uniforms u, v at positions 2 (i samples + c) and that plus
    one, and is sqrt(-2 ln(1 - u)) e^{2 pi i v} (Box-Muller), whose real
    and imaginary parts are independent standard normals.
    """
    R = np.linalg.qr(Y.conj(), mode="r")
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(2 * len(R) * samples)]).reshape(len(R), samples, 2)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[..., 0])), 2.0 * math.pi * u[..., 1]
    return R.conj().T @ (radius * np.cos(angle) + 1j * (radius * np.sin(angle)))


def _max_ratio(basis: BasisSpec, X: np.ndarray, W: np.ndarray, M: int) -> float:
    """Max of pi ||f||_inf / ||f||_1 over the nonzero columns f of X W
    (coefficients against ``basis.indices``; X is size x q, W q x cols) on
    x_j = pi j / M, j = 0..M: the grid max over the composite trapezoid
    L^1.  |f| is pi-periodic for per+- and f(0) = f(pi) = 0 for the sine
    basis, so the trapezoid is pi/M times the plain sum over j < M:
    M max_j |f_j| / sum_j |f_j|.  A column w is dropped as zero when
    w^H (X^H X) w <= 1e-24 ||X||^2 ||w||^2, read from the q x q Gram
    matrix: the floor scales with X and w, and the ratio does not depend
    on their scale.  X W is never formed.

    f is a trigonometric sum on the grid of n_g points 2 pi j / n_g: n_g = M
    with frequencies k div 2 for per+- (a factor e^{-i x_j} under per-,
    which |f| ignores), n_g = 2M for the odd extension sqrt(2) sin kx =
    (e^{ikx} - e^{-ikx}) / (i sqrt(2)) of the sine basis, whose ratio over
    all 2M points is the same.  Folded mod n_g above the lowest one
    (``np.add.at`` sums those that meet), the frequencies take offsets
    d < span; L is the least divisor of n_g with L >= span, P = n_g / L.
    On the coset x_{r + P s}, s < L, a column of X is one inverse FFT of
    length L of its folded coefficients times e^{2 pi i d r / n_g}, up to
    a unimodular factor (FFT pruning: Markel 1971; Sorensen & Burrus
    1993).  Only the q columns of X are folded and transformed, once per
    phase; every block of columns of W (``_BLOCK_VALUES`` values of f)
    then takes f on the coset as one product with them, and the P phases
    are swept with a running max and sum of |f| per column.  So the memory
    grows neither with M nor with the column count, and past the q x L
    coset values not with the basis size.  The sine basis sweeps r = 0 ..
    P // 2 only, at weight 2 for 0 < r < P / 2: by the odd symmetry
    |f_{n_g - j}| = |f_j|, phase P - r holds phase r's values reversed.  A
    span that no proper divisor holds (M prime, or indices past the grid)
    gives L = n_g, P = 1: one full transform.
    """
    if M < 1024:
        raise ValueError("norm evaluation needs M >= 1024")
    G = X.conj().T @ X
    W = W[:, np.sum(W.conj() * (G @ W), axis=0).real
          > 1e-24 * np.linalg.norm(G, 2) * np.sum(np.abs(W) ** 2, axis=0)]
    cols = W.shape[1]
    if not cols:
        raise ValueError("every coefficient column is zero")
    idx, periodic = np.array(basis.indices), basis.bc.is_periodic_family
    if periodic:
        n_g, freq, vals = M, idx // 2, X
    else:
        n_g, freq = 2 * M, np.concatenate([idx, -idx])
        vals = np.concatenate([X, -X]) / (1j * math.sqrt(2.0))
    d = (freq - freq.min()) % n_g
    span = int(d.max()) + 1
    L = next(n for n in range(span, n_g + 1) if n_g % n == 0)
    P = n_g // L
    folded = np.zeros((X.shape[1], span), dtype=complex)
    np.add.at(folded.T, d, vals)
    spec = np.zeros((X.shape[1], L), dtype=complex)  # columns span .. L - 1 stay zero: the padding
    peak, total = np.zeros(cols), np.zeros(cols)
    step = max(1, _BLOCK_VALUES // L)
    for r in range(P) if periodic else range(P // 2 + 1):
        twiddle = np.exp(2j * math.pi / n_g * (np.arange(span) * r % n_g))
        weight = 1.0 if periodic or 2 * r in (0, P) else 2.0
        np.multiply(folded, twiddle, out=spec[:, :span])
        coset = np.fft.ifft(spec, norm="forward")  # the columns of X on x_{r + P s}
        for j in range(0, cols, step):
            b = slice(j, j + step)
            m = np.abs(W[:, b].T @ coset)
            peak[b] = np.maximum(peak[b], m.max(axis=1))
            total[b] += weight * m.sum(axis=1)
    return float((n_g * peak / total).max())


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
    ratio = _max_ratio(pair.basis, pair.X, _draws(pair.Y, samples, seed), M)
    bound = 3.0 + 0.05
    return EquivalenceReport(
        level=pair.n, samples=samples, max_ratio=ratio, bound=bound,
        passed=(ratio <= bound) if regime_ok else True,
        regime_ok=regime_ok, proxy=proxy, seed=seed, grid=M,
        note="" if regime_ok else "deviation proxy above 1/2; bound not asserted",
    )


def sn_equivalence(block: ProjectionPair, samples: int = 200, M: int = 8192,
                   seed: int = 20240801) -> EquivalenceReport:
    """Same comparison for Ran S_N (``rectangle_projection``) against 50 N ln N.

    Alongside random samples, an explicit near-extremal trial (every
    coefficient of the block's columns equal, the concentrated spike) is
    always included, as the last column.
    """
    N, Y = block.n, block.Y
    spike = Y[block.cols].sum(axis=0)[:, None]  # Y^T times the spike's coefficient column
    ratio = _max_ratio(block.basis, block.X, np.hstack([_draws(Y, samples, seed), spike]), M)
    bound = 50.0 * N * math.log(N)
    return EquivalenceReport(
        level=N, samples=samples + 1, max_ratio=ratio, bound=bound,
        passed=ratio <= bound, regime_ok=True, proxy=float("nan"),
        seed=seed, grid=M, note="block projection",
    )
