"""Riesz projections by contour quadrature of the resolvent.

The projection P onto the spectrum of a truncated Hill matrix inside the
disc |z - n^2| < n has rank r = 2 (periodic families) or r = 1
(Dirichlet).  Only its action on the r free columns E = [e_{+-n}] (or
[e_n]) is integrated, with the trapezoidal rule in angle,

    X ~ (radius / Q) * sum_j exp(i theta_j) (z_j - L)^(-1) E       ~ P E,
    Y ~ (radius / Q) * sum_j exp(i theta_j) (z_j - L)^(-T) E       ~ (E^T P)^T,

two r-column solves per node, and the projection is assembled as

    P = X (E^T X)^(-1) Y^T,

which is exact for a rank-r projection whenever E^T P E is invertible.
The formula forces rank r, so the disc must hold exactly r eigenvalues:
that count is checked (``RankMismatch``) on the eigenvalues the contour
guard computes.  The trapezoidal rule converges exponentially in Q for
integrands analytic in an annulus around the circle.  Node counts are
doubled (reusing the moments of previous nodes) until the Frobenius
change of P drops below a tolerance; the last change is reported as the
quadrature error estimate.  The free projection is never computed by
quadrature: it is the exact coordinate projection onto the indices
{+-n} (periodic families) or {n} (Dirichlet).

Block projections S_N onto all spectrum in the rectangle
{-N < Re z < N^2 + N, |Im z| < N} are computed as a rectangle-contour
quadrature for a small base block plus a sum of circle projections for
the remaining levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .operator import BasisSpec, BoundaryCondition, HillMatrix
from .potential import FourierPotential, per_to_dir

__all__ = [
    "EigenvalueOnContour",
    "TruncationTooSmall",
    "IndexOutOfBasis",
    "RankMismatch",
    "ContourSpec",
    "ProjectionPair",
    "riesz_projection",
    "free_projection",
    "first_order_residue",
    "quadrature_vs_residue_check",
    "eigen_count_in_disc",
    "spectral_projector_dense",
    "rectangle_projection",
    "block_projection",
    "BlockProjection",
    "dump_projection",
    "validated_levels",
]

GUARD_FRACTION = 0.05  # reject contours with an eigenvalue within 5% of radius


class EigenvalueOnContour(RuntimeError):
    """An eigenvalue sits too close to the integration contour."""


class TruncationTooSmall(ValueError):
    """The basis half-width is too small for the requested level."""


class IndexOutOfBasis(ValueError):
    """The requested level is not contained in the basis index set."""


class RankMismatch(RuntimeError):
    """The disc does not hold exactly bc.rank eigenvalues."""


@dataclass(frozen=True)
class ContourSpec:
    """Circle |z - center| = radius sampled at ``nodes`` equispaced angles."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.nodes < 16 or self.nodes % 2 != 0:
            raise ValueError("nodes must be an even integer >= 16")

    @classmethod
    def for_level(cls, n: int, nodes: int = 64) -> "ContourSpec":
        return cls(center=complex(n * n), radius=float(n), nodes=nodes)


@dataclass(frozen=True)
class ProjectionPair:
    """Numerical Riesz projection P, exact free projection P0, and B = P - P0."""

    n: int
    basis: BasisSpec
    P: np.ndarray
    P0: np.ndarray
    B: np.ndarray
    quad_error_est: float
    nodes_used: int
    converged: bool  # quad_error_est fell below the requested tolerance
    idempotency: float = field(init=False)

    def __post_init__(self):
        for a in (self.P, self.P0, self.B):
            a.setflags(write=False)
        resid = float(np.linalg.norm(self.P @ self.P - self.P, "fro"))
        object.__setattr__(self, "idempotency", resid)

    @property
    def bc(self) -> BoundaryCondition:
        return self.basis.bc

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.P))

    @property
    def rank_expected(self) -> int:
        return self.bc.rank

    def metadata(self) -> dict:
        return {
            "n": self.n,
            "bc": self.bc.value,
            "half_width": self.basis.half_width,
            "trace_re": self.trace.real,
            "trace_im": self.trace.imag,
            "quad_error_est": self.quad_error_est,
            "converged": self.converged,
            "idempotency_residual": self.idempotency,
            "nodes": self.nodes_used,
        }


def _contour_guard(H: HillMatrix, center: complex, radius: float,
                   guard_frac: float) -> np.ndarray:
    """Raise if an eigenvalue is near the circle; return the eigenvalues."""
    vals = H.eigenvalues()
    dist = np.abs(np.abs(vals - center) - radius)
    if dist.min() < guard_frac * radius:
        raise EigenvalueOnContour(
            f"eigenvalue within {guard_frac:.2f}*radius of |z-{center}|={radius}")
    return vals


def free_projection(basis: BasisSpec, n: int) -> np.ndarray:
    """Coordinate projection onto {+-n} (Per+-) or {n} (Dirichlet)."""
    if not basis.contains_level(n):
        raise IndexOutOfBasis(f"level {n} not in basis for {basis.bc.value}")
    P0 = np.zeros((basis.size, basis.size), dtype=complex)
    targets = (n, -n) if basis.bc.is_periodic_family else (n,)
    for k in set(targets):
        j = basis.position(k)
        P0[j, j] = 1.0
    return P0


def riesz_projection(H: HillMatrix, n: int, contour: ContourSpec | None = None,
                     *, tol: float = 1e-10, max_nodes: int = 512,
                     guard_frac: float = GUARD_FRACTION) -> ProjectionPair:
    """Contour-quadrature Riesz projection for the level n disc.

    Preconditions: n matches the boundary-condition parity, +-n lie in
    the basis, the half-width is at least 4n (so the contour stays well
    inside the truncated spectrum), no eigenvalue approaches the contour,
    and the disc holds exactly ``bc.rank`` eigenvalues.  Node counts start
    at ``contour.nodes`` and are doubled, reusing the moments of earlier
    nodes, until the projection stabilizes below ``tol`` in Frobenius norm
    or ``max_nodes`` is hit.
    """
    bc = H.basis.bc
    if not bc.level_ok(n):
        raise ValueError(f"level {n} has wrong parity for {bc.value}")
    if not H.basis.contains_level(n):
        raise IndexOutOfBasis(f"level {n} outside basis of half-width {H.basis.half_width}")
    if H.basis.half_width < 4 * n:
        raise TruncationTooSmall(
            f"half-width {H.basis.half_width} < 4*n = {4 * n}; resolvent accuracy "
            "degrades when the contour approaches the truncation edge")
    if contour is None:
        contour = ContourSpec.for_level(n)
    c, R = contour.center, contour.radius
    vals = _contour_guard(H, c, R, guard_frac)
    inside = int(np.count_nonzero(np.abs(vals - c) < R))
    if inside != bc.rank:
        raise RankMismatch(
            f"{inside} eigenvalue(s) in |z-{c}|<{R}, expected {bc.rank} for {bc.value}")

    P0 = free_projection(H.basis, n)
    cols = np.flatnonzero(np.diag(P0))  # positions of e_{+-n} (e_n for Dirichlet)
    E, r = P0[:, cols], len(cols)
    ident = np.eye(H.size, dtype=complex)

    def moments(thetas: np.ndarray) -> np.ndarray:
        # columns [:r] accumulate (z - L)^-1 E, columns [r:] (z - L)^-T E
        acc = np.zeros((H.size, 2 * r), dtype=complex)
        for th in thetas:
            A = (c + R * np.exp(1j * th)) * ident - H.L
            acc[:, :r] += np.exp(1j * th) * np.linalg.solve(A, E)
            acc[:, r:] += np.exp(1j * th) * np.linalg.solve(A.T, E)
        return acc

    def project(M: np.ndarray, scale: float) -> np.ndarray:
        # X ~ P E and Y^T ~ E^T P, so P = X (E^T X)^-1 Y^T for rank-r P
        X, Y = scale * M[:, :r], scale * M[:, r:]
        return X @ np.linalg.solve(X[cols], Y.T)

    # the even-indexed nodes of the Q-grid form the Q/2-grid, so the first
    # error estimate costs no extra resolvent solves
    Q = contour.nodes
    thetas = 2.0 * np.pi * np.arange(Q) / Q
    M_even = moments(thetas[::2])
    M = M_even + moments(thetas[1::2])
    P = project(M, R / Q)
    est = float(np.linalg.norm(P - project(M_even, R / (Q // 2)), "fro"))
    while est >= tol and Q < max_nodes:
        # midpoints of the current grid are the odd nodes of the doubled grid
        M = M + moments(2.0 * np.pi * (np.arange(Q) + 0.5) / Q)
        Q *= 2
        P_new = project(M, R / Q)
        est = float(np.linalg.norm(P_new - P, "fro"))
        P = P_new

    return ProjectionPair(n=n, basis=H.basis, P=P, P0=P0, B=P - P0,
                          quad_error_est=est, nodes_used=Q, converged=est < tol)


def _coupling_entry(pot, bc: BoundaryCondition, k: int, m: int) -> complex:
    """Matrix element of the rough interaction (without v0) between e_m and e_k."""
    if bc.is_periodic_family:
        return pot.V(k - m)
    d, s = abs(k - m), k + m
    return (d * pot.qc(d) - s * pot.qc(s)) / math.sqrt(2.0)


def first_order_residue(pot, bc: BoundaryCondition, n: int, k: int, m: int) -> complex:
    """Closed-form contour integral of the first-order perturbation term.

    The integrand W(k, m) / ((z - k^2)(z - m^2)) over |z - n^2| = n picks
    up a residue only when exactly one of k, m hits a level index:

        m = +-n, k != +-n:  W(k, m) / (n^2 - k^2)
        k = +-n, m != +-n:  W(k, m) / (n^2 - m^2)
        otherwise:          0

    (for k and m both at +-n the pole is double with constant numerator,
    so the integral still vanishes).  For the Dirichlet lattice "+-n"
    degenerates to {n}.
    """
    if bc is BoundaryCondition.DIRICHLET and isinstance(pot, FourierPotential):
        pot = per_to_dir(pot, max_sine=abs(k) + abs(m) + 2)
    levels = (n, -n) if bc.is_periodic_family else (n,)
    k_hits, m_hits = k in levels, m in levels
    if m_hits and not k_hits:
        return _coupling_entry(pot, bc, k, m) / (n * n - k * k)
    if k_hits and not m_hits:
        return _coupling_entry(pot, bc, k, m) / (n * n - m * m)
    return 0.0


def quadrature_vs_residue_check(pot, bc: BoundaryCondition, n: int,
                                half_width: int, nodes: int = 64) -> float:
    """Entrywise gap between quadrature and closed form of the first-order term.

    Integrates D(z) W D(z) with D(z) = diag(1/(z - k^2)) over the level-n
    circle using exactly ``nodes`` trapezoid points and compares against
    ``first_order_residue`` on every (k, m).
    """
    from . import operator as _op

    basis = _op.basis_for(bc, half_width)
    if not basis.contains_level(n) and bc is BoundaryCondition.DIRICHLET:
        raise IndexOutOfBasis(f"level {n} outside Dirichlet basis")
    if bc is BoundaryCondition.DIRICHLET and isinstance(pot, FourierPotential):
        pot = per_to_dir(pot, max_sine=2 * half_width)
    H = _op.assemble(bc, pot, half_width)
    W = H.Vmat - complex(getattr(pot, "v0", 0.0)) * np.eye(H.size)

    idx = np.array(basis.indices, dtype=float)
    c, R = float(n * n), float(n)
    quad = np.zeros_like(W)
    for th in 2.0 * np.pi * np.arange(nodes) / nodes:
        z = c + R * np.exp(1j * th)
        d = 1.0 / (z - idx * idx)
        quad += np.exp(1j * th) * (np.outer(d, d) * W)
    quad *= R / nodes

    closed = np.zeros_like(W)
    for i, k in enumerate(basis.indices):
        for j, m in enumerate(basis.indices):
            closed[i, j] = first_order_residue(pot, bc, n, k, m)
    return float(np.abs(quad - closed).max())


def eigen_count_in_disc(H: HillMatrix, n: int) -> int:
    """Number of eigenvalues (with algebraic multiplicity) in |z - n^2| < n."""
    vals = H.eigenvalues()
    return int(np.count_nonzero(np.abs(vals - n * n) < n))


def spectral_projector_dense(H: HillMatrix, n: int) -> np.ndarray:
    """Spectral projector for the disc from a dense eigendecomposition.

    Independent route from the contour quadrature: sums eigenprojectors
    X[:, inside] (X^-1)[inside, :] over eigenvalues in the disc.
    """
    vals, vecs, vinv = H.eig()
    inside = np.abs(vals - n * n) < n
    return vecs[:, inside] @ vinv[inside, :]


def _rect_corners(N: int | float) -> list[complex]:
    # counterclockwise, starting at the bottom-right corner
    N = float(N)
    re_max = N * N + N
    return [complex(re_max, -N), complex(re_max, N),
            complex(-N, N), complex(-N, -N), complex(re_max, -N)]


def _rect_guard(H: HillMatrix, N: float, guard_frac: float) -> None:
    corners = _rect_corners(N)
    vals = H.eigenvalues()
    mind = np.inf
    for a, b in zip(corners[:-1], corners[1:]):
        seg = b - a
        t = np.clip(((vals - a) * np.conj(seg)).real / abs(seg) ** 2, 0.0, 1.0)
        mind = min(mind, float(np.abs(vals - (a + t * seg)).min()))
    if mind < guard_frac * N:
        raise EigenvalueOnContour(
            f"eigenvalue within {guard_frac:.2f}*N of the rectangle boundary")


def _rect_quadrature(H: HillMatrix, N: float, panels_scale: int,
                     panel_nodes: int) -> np.ndarray:
    nodes, weights = roots_legendre(panel_nodes)
    ident = np.eye(H.size, dtype=complex)
    acc = np.zeros((H.size, H.size), dtype=complex)
    corners = _rect_corners(N)
    for a, b in zip(corners[:-1], corners[1:]):
        length = abs(b - a)
        n_panels = panels_scale * max(1, math.ceil(length / max(N, 4.0)))
        for p in range(n_panels):
            pa = a + (b - a) * p / n_panels
            pb = a + (b - a) * (p + 1) / n_panels
            half = (pb - pa) / 2.0
            mid = (pa + pb) / 2.0
            for t, w in zip(nodes, weights):
                z = mid + half * t
                acc += (w * half) * np.linalg.inv(z * ident - H.L)
    return acc / (2.0j * np.pi)


def rectangle_projection(H: HillMatrix, N: int, panel_nodes: int = 20,
                         guard_frac: float = GUARD_FRACTION,
                         refine_tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Projection onto all spectrum in {-N < Re z < N^2+N, |Im z| < N}.

    Composite Gauss-Legendre panels on each rectangle side (corners are
    never nodes); the panel count is doubled once and the Frobenius
    change reported as the error estimate, refining again if needed.
    """
    _rect_guard(H, float(N), guard_frac)
    P = _rect_quadrature(H, float(N), 1, panel_nodes)
    scale = 2
    while True:
        P2 = _rect_quadrature(H, float(N), scale, panel_nodes)
        est = float(np.linalg.norm(P2 - P, "fro"))
        P = P2
        if est < refine_tol or scale >= 8:
            return P, est
        scale *= 2


@dataclass(frozen=True)
class BlockProjection:
    """S_N assembled as a base rectangle block plus level projections."""

    S: np.ndarray
    N: int
    N0: int
    rect_error_est: float
    level_errors: dict
    free_dimension: int

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.S))

    @property
    def idempotency(self) -> float:
        return float(np.linalg.norm(self.S @ self.S - self.S, "fro"))


def block_projection(H: HillMatrix, N0: int, N: int, nodes: int = 64,
                     panel_nodes: int = 20) -> BlockProjection:
    """S_N = S_{N0} + sum of level projections for N0 < k <= N.

    S_{N0} comes from the rectangle contour; each remaining level uses the
    circle quadrature.  Levels follow the boundary-condition parity.
    """
    if N < N0:
        raise ValueError("N must be >= N0")
    bc = H.basis.bc
    S, rect_est = rectangle_projection(H, N0, panel_nodes=panel_nodes)
    level_errors: dict[int, float] = {}
    for k in range(N0 + 1, N + 1):
        if not bc.level_ok(k):
            continue
        pair = riesz_projection(H, k, ContourSpec.for_level(k, nodes))
        S = S + pair.P
        level_errors[k] = pair.quad_error_est
    free_dim = sum(1 for k in H.basis.indices if k * k < N * N + N)
    return BlockProjection(S=S, N=N, N0=N0, rect_error_est=rect_est,
                           level_errors=level_errors, free_dimension=free_dim)


def dump_projection(pair: ProjectionPair, path, fmt: str = "csv"):
    """Export P in the operator dump format plus a JSON metadata sidecar.

    csv: basis-index header row, then one row per index (row-major,
    're+imj' entries).  npz: arrays 'indices', 'P', 'P0', 'B'.  The
    sidecar '<path>.meta.json' carries the per-projection quality data.
    """
    import csv as _csv
    import json as _json
    from pathlib import Path as _Path

    path = _Path(path)
    if fmt == "npz":
        np.savez(path, indices=np.array(pair.basis.indices),
                 P=pair.P, P0=pair.P0, B=pair.B)
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["index"] + [str(k) for k in pair.basis.indices])
            for k, row in zip(pair.basis.indices, pair.P):
                writer.writerow([str(k)] + [f"{z.real:.17g}{z.imag:+.17g}j" for z in row])
    else:
        raise ValueError("fmt must be 'csv' or 'npz'")
    meta = path.with_name(path.name + ".meta.json")
    meta.write_text(_json.dumps(pair.metadata(), indent=2, sort_keys=True) + "\n")
    return path


def validated_levels(H: HillMatrix, candidates, guard_frac: float = GUARD_FRACTION):
    """Levels passing the spectral-side checks: parity, range, guard, count.

    The smallest returned level is the empirical onset of the asymptotic
    regime for this potential and truncation (it is potential-dependent
    and is reported, never assumed).
    """
    good = []
    for n in candidates:
        bc = H.basis.bc
        if not bc.level_ok(n) or not H.basis.contains_level(n):
            continue
        if H.basis.half_width < 4 * n:
            continue
        try:
            _contour_guard(H, complex(n * n), float(n), guard_frac)
        except EigenvalueOnContour:
            continue
        if eigen_count_in_disc(H, n) == bc.rank:
            good.append(n)
    return good
