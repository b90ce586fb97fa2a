"""Riesz projections by contour quadrature of the resolvent.

One engine serves every contour.  A projection P of rank r is recovered
from its action on r free columns E = I[:, cols].  A contour rule with
nodes z_j and weights w_j gives the moments (``_moments``)

    M ~ scale * sum_j w_j (z_j - L)^(-1) E       ~ P E,

and ``_factors`` keeps P = X Y^T with X = M (E^T M)^(-1) and Y = P^T E,
which is exact for a rank-r projection whenever E^T P E is invertible.
The formula forces rank r, so every contour must enclose exactly r
eigenvalues.  One guard, ``_gate``, refuses every circle (level, base
block) with an eigenvalue near it (``EigenvalueOnContour``) or without
exactly r eigenvalues inside (``RankMismatch``), and one lattice check,
``_check_level``, refuses a level off the basis lattice
(``IndexOutOfBasis``).

Y needs no second set of solves.  Every Hill matrix has the transpose
symmetry of its lattice, L^T = L[p][:, p] (``BasisSpec.transpose_perm``:
k -> -k for per+-, the identity for Dirichlet; ``HillMatrix`` checks it),
so (z - L)^(-T) = (z - L)^(-1)[p][:, p] node by node, for every contour,
weight and potential.  The columns of every contour here are closed
under p, p[cols] = cols[s], hence Y = M[p][:, s].

No quantity forms P densely: B = P - E E^T = [X, -E] [Y, E]^T,
P^2 - P and the change of P between node counts take their norms from a
2r x 2r core of thin QRs of two N x 2r factors (``_core``), in O(N r^2).
Only sum |B_km| visits every entry of B, over row blocks.

The shifted solves never factor z - L.  Each matrix is reduced once to
the Hessenberg form L = Q A Q^H (``HillMatrix.hessenberg``), with Q kept
as compact-WY reflector panels and never formed: ``HillMatrix.apply_q``
takes the free columns in (Q^H E) and the node sums out (Q X), once for
all the levels of a call.  ``_hessenberg_sweep`` solves z - A with one
bottom-up Givens sweep per node, vectorised over the nodes, on the band
of A: with A[i, j] = 0 for j - i > b, a node costs O(N b r) work and
O(N r) memory.  A dense A has b = N - 1; for Hermitian L the form is
tridiagonal (b = 1).  Each node carries its own right-hand sides, so the
nodes of many contours share a sweep: ``riesz_projections`` gates every
level first, then sweeps the nodes of all its levels together in chunks
of ``_NODE_BLOCK``, and doubles the unconverged levels together.

The level projection over the disc |z - n^2| < n has r = 2 (periodic
families, E = [e_{+-n}]) or r = 1 (Dirichlet, E = [e_n]).  The paper's
circle C_n = {|z - n^2| = n} is the gate circle: ``_gate`` certifies that
it holds exactly r eigenvalues, and its margin is the reported guard
margin.  P_n is fixed by those eigenvalues, not by the curve, so the
integration circle is |z - n^2| = rho with rho = sqrt(d_in d_out)
(``_level_radius``), d_in the farthest eigenvalue distance from n^2
inside C_n and d_out the nearest outside, clipped to at most n; the gate
of the small circle checks that it holds the same eigenvalues.  The
trapezoidal rule in angle, w_j = exp(i theta_j) and
z_j = n^2 + rho w_j, has error about (d_in/rho)^Q + (rho/d_out)^Q
(Trefethen & Weideman, SIAM Review 56 (2014)): (d_in/d_out)^(Q/2) at the
geometric mean against about 2^-Q on C_n, where d_out is near 2n.  Each
pair reports its ``radius`` and that per-node ``rate``.  Node counts
start at ``_NODES`` and are doubled (reusing the moments of previous
nodes) until the Frobenius change of P drops below ``_TOL`` or the count
reaches ``_MAX_NODES``; the last change is reported as the quadrature
error estimate.  The free
projection is never computed by quadrature: it is the exact coordinate
projection onto the indices {+-n} (periodic families) or {n} (Dirichlet),
``BoundaryCondition.level_indices``.

Block projections S_N onto all spectrum in the rectangle
{-N < Re z < N^2 + N, |Im z| < N} are a base block for a small N0 plus a
sum of level projections for the remaining levels.  Any contour that
encloses exactly the rectangle's eigenvalues gives the base block, so it
uses the same trapezoidal rule and node doubling on the circle
|z - N0^2/2| = N0^2/2 + N0 through the rectangle's real endpoints, with
E the columns of every index k^2 < N0^2 + N0: the circle and the
rectangle must hold the same eigenvalues, exactly that many.  The parts
have disjoint columns, so S_N = [X_i] [Y_i]^T is one more
``ProjectionPair``, on the columns of every index k^2 < N^2 + N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operator import BasisSpec, BoundaryCondition, HillMatrix, basis_for, coupling

__all__ = [
    "EigenvalueOnContour",
    "TruncationTooSmall",
    "IndexOutOfBasis",
    "RankMismatch",
    "ProjectionPair",
    "riesz_projection",
    "riesz_projections",
    "free_projection",
    "first_order_residue",
    "quadrature_vs_residue_check",
    "eigen_count_in_disc",
    "spectral_projector_dense",
    "rectangle_projection",
    "block_projection",
    "validated_levels",
]

GUARD_FRACTION = 0.05  # reject contours with an eigenvalue within 5% of radius
_NODES, _TOL, _MAX_NODES = 16, 1e-10, 512  # the start and stopping rule of every contour
_ROW_BLOCK = 512  # rows of B per block of ``sum_abs_B``: O(_ROW_BLOCK * N) memory


class EigenvalueOnContour(RuntimeError):
    """An eigenvalue sits too close to the integration contour."""


class TruncationTooSmall(ValueError):
    """The basis half-width is too small for the requested level."""


class IndexOutOfBasis(ValueError):
    """The requested level is not a level of the basis lattice (parity or range)."""


class RankMismatch(RuntimeError):
    """The circle does not hold exactly the eigenvalues it must enclose."""


def _core(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """R_l R_r^T for thin QRs left = Q_l R_l, right = Q_r R_r: it has the
    singular values of left right^T, in O(N k^2) for k columns."""
    return np.linalg.qr(left, mode="r") @ np.linalg.qr(right, mode="r").T


@dataclass(frozen=True)
class ProjectionPair:
    """Riesz projection P = X Y^T (X, Y: N x r, r = len(cols)), P0 = E E^T
    (E = I[:, cols]) and B = P - P0.  Norms come from ``_core``s and row
    blocks (``sum_abs_B``); dense N x N ``P`` and ``B`` on access only."""

    n: int  # the level, or N of a block S_N
    basis: BasisSpec
    X: np.ndarray
    Y: np.ndarray
    cols: np.ndarray
    quad_error_est: float
    nodes_used: int
    converged: bool  # quad_error_est fell below _TOL
    guard_margin: float  # nearest eigenvalue-to-gate-circle distance / its radius
    radius: float  # of the integration circle
    rate: float  # a priori per-node decay of the trapezoid error on it (``_rate``)
    idempotency: float = field(init=False)  # ||P^2 - P||_F
    t_n: float = field(init=False)  # ||B||_2, the L^2 -> L^2 deviation
    frob: float = field(init=False)  # ||B||_F

    def __post_init__(self):
        X, Y, cols = self.X, self.Y, self.cols
        for a in (X, Y, cols):
            a.setflags(write=False)
        E = (np.arange(len(X))[:, None] == cols).astype(float)  # I[:, cols]
        B = _core(np.hstack([X, -E]), np.hstack([Y, E]))  # B = [X, -E] [Y, E]^T
        P2_P = _core(X @ (Y.T @ X - np.eye(len(cols))), Y)  # P^2 - P = X (Y^T X - I) Y^T
        for name, norm in (("idempotency", np.linalg.norm(P2_P, "fro")),
                           ("t_n", np.linalg.norm(B, 2)), ("frob", np.linalg.norm(B, "fro"))):
            object.__setattr__(self, name, float(norm))

    @property
    def bc(self) -> BoundaryCondition:
        return self.basis.bc

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.Y.T @ self.X))

    @property
    def trace_defect(self) -> float:
        """|trace P - r|: a projection of rank r has trace exactly r."""
        return abs(self.trace - len(self.cols))

    @cached_property
    def sum_abs_B(self) -> float:
        """sum |B_km| over blocks of ``_ROW_BLOCK`` rows of X Y^T - E E^T."""
        Yt, cols, total = self.Y.T, self.cols, 0.0
        for i in range(0, len(self.X), _ROW_BLOCK):
            blk = self.X[i:i + _ROW_BLOCK] @ Yt
            c = cols[(cols >= i) & (cols < i + _ROW_BLOCK)]
            blk[c - i, c] -= 1.0
            total += float(np.abs(blk).sum())
        return total

    @cached_property
    def P(self) -> np.ndarray:
        """Dense P, N x N: for the oracles and the tests."""
        P = self.X @ self.Y.T
        P.setflags(write=False)
        return P

    @property
    def B(self) -> np.ndarray:
        """Dense B = P - E E^T, N x N: for the oracles and the tests."""
        B = self.P.copy()
        B[self.cols, self.cols] -= 1.0
        return B


def _gate(H: HillMatrix, center: complex, radius: float, rank: int,
          region: np.ndarray | None = None) -> float:
    """Refuse the circle |z - center| = radius unless every eigenvalue keeps
    GUARD_FRACTION * radius away from it (else ``EigenvalueOnContour``) and
    it holds exactly ``rank`` of them, the same ones as the mask ``region``
    over ``H.eigenvalues()`` when given (else ``RankMismatch``).  Returns
    the guard margin: nearest eigenvalue-to-circle distance / radius."""
    vals = H.eigenvalues()
    dist = np.abs(np.abs(vals - center) - radius)
    if dist.min() < GUARD_FRACTION * radius:
        raise EigenvalueOnContour(
            f"eigenvalue within {GUARD_FRACTION:.2f}*radius of |z-{center}|={radius}")
    inside = np.abs(vals - center) < radius
    count = int(np.count_nonzero(inside))
    if count != rank:
        raise RankMismatch(f"{count} eigenvalue(s) in |z-{center}|<{radius}, "
                           f"expected {rank} for {H.basis.bc.value}")
    if region is not None and not np.array_equal(inside, region):
        raise RankMismatch(f"{np.count_nonzero(inside != region)} eigenvalue(s) in only "
                           f"one of |z-{center}|<{radius} and its region")
    return float(dist.min()) / radius


def _spread(H: HillMatrix, center: complex, radius: float) -> tuple[float, float]:
    """(d_in, d_out): the farthest eigenvalue distance from ``center``
    inside the circle |z - center| = radius, and the nearest outside."""
    dist = np.abs(H.eigenvalues() - center)
    inside = dist < radius
    return float(dist[inside].max(initial=0.0)), float(dist[~inside].min(initial=np.inf))


def _rate(H: HillMatrix, center: complex, radius: float) -> float:
    """max(d_in / radius, radius / d_out) for the ``_spread`` of the circle:
    the trapezoid error on it decays about like rate^Q in the node count Q."""
    d_in, d_out = _spread(H, center, radius)
    return float(max(d_in / radius, radius / d_out))


def _level_radius(H: HillMatrix, n: int) -> float:
    """The integration radius of level n, whose circle C_n = {|z - n^2| = n}
    passed ``_gate``: rho = sqrt(max(d_in, d_out / 100) d_out) for the
    ``_spread`` of C_n, clipped to at most n.  The floor d_out / 100 covers
    d_in = 0 and keeps rho >= d_out / 10.  When an eigenvalue would come
    within ``GUARD_FRACTION`` * rho of the smaller circle (d_in and d_out
    both near n), the radius is n: C_n converges as fast there."""
    d_in, d_out = _spread(H, n * n, n)
    rho = min(float(np.sqrt(max(d_in, d_out / 100) * d_out)), float(n))
    return rho if min(rho - d_in, d_out - rho) >= GUARD_FRACTION * rho else float(n)


def _check_level(basis: BasisSpec, n: int) -> None:
    """Raise ``IndexOutOfBasis`` unless n is a level of the basis lattice:
    the parity of its boundary condition, with every level index in the basis."""
    if not (basis.bc.level_ok(n) and basis.contains_level(n)):
        raise IndexOutOfBasis(
            f"level {n} is not a level of the {basis.bc.value} basis "
            f"of half-width {basis.half_width}")


def _level_cols(H: HillMatrix, n: int) -> np.ndarray:
    """Check the lattice and truncation preconditions of ``riesz_projection``;
    return the positions of e_{+-n}."""
    basis = H.basis
    _check_level(basis, n)
    if basis.half_width < 4 * n:
        raise TruncationTooSmall(
            f"half-width {basis.half_width} < 4*n = {4 * n}; resolvent accuracy "
            "degrades when the contour approaches the truncation edge")
    return np.array(sorted(basis.position(k) for k in basis.bc.level_indices(n)))


_NODE_BLOCK = 128  # nodes per sweep: bounds the work arrays at O(_NODE_BLOCK * N * r)


def _hessenberg_sweep(band: np.ndarray, h: np.ndarray, y: np.ndarray,
                      zs: np.ndarray) -> np.ndarray:
    """Solutions of (z_j - A) x = y[:, :, j] for the operands of
    ``HillMatrix.hessenberg``, written over ``y``.

    ``y`` is N x r x Q, one set of r right-hand sides per shift in ``zs``,
    index-major like ``band``.  A bottom-up Givens RQ of z - A: step k
    rotates columns k-1 and k to zero the subdiagonal entry (k, k-1),
    which completes column k of the triangular factor, so it fixes y_k
    and updates the right-hand sides.  Column k of the partly reduced
    matrix has the band of A, so step k touches only rows
    max(0, k-1-b) .. k: each shift costs O(N b r) work and O(N r) memory.
    A second pass applies the stored rotations to y.
    """
    N, b1 = band.shape
    b = b1 - 1
    Q = len(zs)
    v = np.zeros((N, Q), dtype=complex)  # column k of the partly reduced z - A
    top = max(0, N - 1 - b)
    v[top:] = band[N - 1, top - (N - 1 - b):, None]
    v[N - 1] += zs
    cs = np.empty((N, Q), dtype=complex)
    ss = np.empty((N, Q), dtype=complex)
    habs = np.abs(h)
    for k in range(N - 1, 0, -1):
        rho = np.hypot(habs[k - 1], np.abs(v[k]))
        c, s, yk = cs[k], ss[k], y[k]
        np.divide(v[k], rho, out=c)
        np.divide(h[k - 1], rho, out=s)
        yk /= rho
        top = max(0, k - 1 - b)  # rows top .. k-1 of columns k-1 and k are in the band
        u, vk = band[k - 1, top - (k - 1 - b):, None], v[top:k]
        # [column k-1, column k] <- [u, v] [[c, conj(s)], [-s, conj(c)]]
        sc = s.conj()
        col_k = sc * u + c.conj() * vk
        col_k[-1] += sc * zs
        y[top:k] -= col_k[:, None] * yk
        np.subtract(c * u, s * vk, out=vk)
        vk[-1] += c * zs
    y[0] /= v[0]
    for k in range(1, N):
        lo, hi = y[k - 1].copy(), y[k]
        c, s = cs[k], ss[k]
        y[k - 1] *= c
        y[k - 1] += s.conj() * hi
        hi *= c.conj()
        hi -= s * lo
    return y


def _moments(H: HillMatrix, cols: np.ndarray, zs: np.ndarray,
             ws: np.ndarray) -> np.ndarray:
    """sum_j w_gj (z_gj - L)^-1 E_g for E_g = I[:, cols[g]], N x r, for
    every group g of the G x r ``cols``, with G x Q nodes ``zs`` and
    weights ``ws``: G x N x r.

    With L = Q A Q^H from ``H.hessenberg()``, (z - L)^-1 E = Q (z - A)^-1 Q^H E:
    one ``apply_q`` takes every E_g in, the nodes of all groups go
    through the sweep together in chunks of ``_NODE_BLOCK`` (a chunk may
    hold nodes of several groups), and one ``apply_q`` takes every sum
    back.
    """
    band, h, _ = H.hessenberg()
    (G, r), N, Qn = cols.shape, H.size, zs.shape[1]
    E = np.zeros((N, G * r))
    E[cols.ravel(), np.arange(G * r)] = 1.0
    rhs = H.apply_q(E, adjoint=True).reshape(N, G, r).transpose(0, 2, 1)  # N x r x G
    wf, zf = ws.ravel(), zs.ravel()
    acc = np.zeros((N, G, r), dtype=complex)
    for i in range(0, G * Qn, _NODE_BLOCK):
        j = np.arange(i, min(i + _NODE_BLOCK, G * Qn))
        x = _hessenberg_sweep(band, h, rhs[:, :, j // Qn], zf[j])
        for g in range(j[0] // Qn, j[-1] // Qn + 1):
            lo, hi = max(g * Qn, i), min((g + 1) * Qn, j[-1] + 1)
            acc[:, g] += x[:, :, lo - i:hi - i] @ wf[lo:hi]
    return H.apply_q(acc.reshape(N, G * r)).reshape(N, G, r).transpose(1, 0, 2)


def _factors(M: np.ndarray, cols: np.ndarray, p: np.ndarray, scale: complex):
    """(X, Y): P = X Y^T with X = PE (E^T PE)^-1 and Y = P^T E, from the
    scaled moments PE = scale M ~ P E.

    Y comes from PE by the transpose symmetry L^T = L[p][:, p], which every
    Riesz projection of L inherits: P^T = P[p][:, p].  With
    p[cols] = cols[s] that is Y = PE[p][:, s].
    """
    PE = scale * M
    return PE @ np.linalg.inv(PE[cols]), PE[p][:, np.searchsorted(cols, p[cols])]


def _change(f1, f0) -> float:
    """||X1 Y1^T - X0 Y0^T||_F for ``_factors`` f, from their ``_core``."""
    (X1, Y1), (X0, Y0) = f1, f0
    return float(np.linalg.norm(_core(np.hstack([X1, X0]), np.hstack([Y1, -Y0]))))


def free_projection(basis: BasisSpec, n: int) -> np.ndarray:
    """Dense coordinate projection onto the ``level_indices`` of n, for the oracles."""
    _check_level(basis, n)
    P0 = np.zeros((basis.size, basis.size), dtype=complex)
    for k in basis.bc.level_indices(n):
        P0[basis.position(k), basis.position(k)] = 1.0
    return P0


def _circle_rules(H: HillMatrix, circles: list) -> list[ProjectionPair]:
    """Rank-r projections over the circles (n, cols, c, R, margin), each
    |z - c| = R with r = len(cols) for all, by the trapezoidal rule, as the
    pairs of level (or block) n whose ``_gate`` gave ``margin``, with the
    ``_rate`` of each circle.

    Node counts start at ``_NODES`` and are doubled, reusing the moments
    of earlier nodes, until the Frobenius change of P drops below ``_TOL``
    or ``_MAX_NODES`` is hit.  Every round sweeps the nodes of all circles
    still running in one ``_moments`` call.
    """
    if not circles:
        return []
    ns, cols, c, R, margins = zip(*circles)
    cols, c, R = np.array(cols), np.array(c, dtype=complex), np.array(R, dtype=float)
    p = H.basis.transpose_perm()
    for cl in cols:
        assert np.array_equal(np.sort(p[cl]), cl), "cols not closed under the transpose symmetry"

    def moments(g, thetas: np.ndarray) -> np.ndarray:
        w = np.broadcast_to(np.exp(1j * thetas), (len(g), thetas.shape[-1]))
        return _moments(H, cols[g], c[g, None] + R[g, None] * w, w)

    def factors(M: np.ndarray, g: int, Q: int):
        return _factors(M, cols[g], p, R[g] / Q)

    # the even-indexed nodes of the Q-grid form the Q/2-grid, so the first
    # error estimate costs no extra resolvent solves: the even and the odd
    # half of each circle's Q-grid go through one sweep as two groups
    Q, every = _NODES, range(len(cols))
    halves = 2.0 * np.pi * np.arange(Q).reshape(Q // 2, 2).T / Q  # even row, odd row
    M_halves = moments(np.repeat(every, 2), np.tile(halves, (len(cols), 1)))
    M_even, M = M_halves[::2], M_halves[::2] + M_halves[1::2]
    f = [factors(M[g], g, Q) for g in every]
    est = [_change(f[g], factors(M_even[g], g, Q // 2)) for g in every]
    used = [Q] * len(cols)
    while Q < _MAX_NODES and (run := [g for g in every if est[g] >= _TOL]):
        # midpoints of the current grid are the odd nodes of the doubled grid
        M[run] += moments(run, 2.0 * np.pi * (np.arange(Q) + 0.5) / Q)
        Q *= 2
        for g in run:
            f_new = factors(M[g], g, Q)
            est[g], f[g], used[g] = _change(f_new, f[g]), f_new, Q
    return [ProjectionPair(ns[g], H.basis, *f[g], cols[g], quad_error_est=est[g],
                           nodes_used=used[g], converged=est[g] < _TOL,
                           guard_margin=margins[g], radius=float(R[g]),
                           rate=_rate(H, c[g], R[g])) for g in every]


_LEVEL_ERRORS = (IndexOutOfBasis, TruncationTooSmall, EigenvalueOnContour, RankMismatch)


def _level_circles(H: HillMatrix, levels) -> tuple[list, dict]:
    """The circles of ``_circle_rules`` for the levels that pass
    ``_level_cols`` and ``_gate``, and {n: error} for the others.

    The gate on C_n gives the guard margin; the circle integrated is the
    ``_level_radius`` one, gated to hold the eigenvalues inside C_n."""
    circles, errors = [], {}
    for n in levels:
        try:
            cols = _level_cols(H, n)
            c, r = complex(n * n), len(cols)
            margin = _gate(H, c, float(n), r)
            rho = _level_radius(H, n)
            _gate(H, c, rho, r, region=np.abs(H.eigenvalues() - c) < n)
            circles.append((n, cols, c, rho, margin))
        except _LEVEL_ERRORS as exc:
            errors[n] = exc
    return circles, errors


def riesz_projections(H: HillMatrix,
                      levels) -> tuple[dict[int, ProjectionPair], dict[int, Exception]]:
    """Contour-quadrature Riesz projections of ``levels``, each over its
    level disc |z - n^2| < n: ({n: pair}, {n: error}) in level order.

    Every level passes the preconditions of ``riesz_projection`` or gets
    its error (``IndexOutOfBasis``, ``TruncationTooSmall``,
    ``EigenvalueOnContour``, ``RankMismatch``) before any node is swept;
    the nodes of the others go through ``_circle_rules`` together.
    """
    circles, errors = _level_circles(H, levels)
    pairs = _circle_rules(H, circles)
    return {pair.n: pair for pair in pairs}, errors


def riesz_projection(H: HillMatrix, n: int) -> ProjectionPair:
    """Contour-quadrature Riesz projection for the level n disc |z - n^2| < n:
    ``riesz_projections`` of the one level, raising its error.

    Preconditions: n is a level of the basis lattice (its parity, with
    +-n in the basis), the half-width is at least 4n (so the contour stays
    well inside the truncated spectrum), no eigenvalue approaches the
    contour, and the disc holds exactly ``bc.rank`` eigenvalues.
    """
    pairs, errors = riesz_projections(H, [n])
    if errors:
        raise errors[n]
    return pairs[n]


def first_order_residue(pot, bc: BoundaryCondition, n: int, k, m):
    """Closed-form contour integral of the first-order perturbation term.

    The integrand W(k, m) / ((z - k^2)(z - m^2)) over |z - n^2| = n, with
    W the ``coupling``, picks up a residue only when exactly one of k, m
    hits a level index:

        m = +-n, k != +-n:  W(k, m) / (n^2 - k^2)
        k = +-n, m != +-n:  W(k, m) / (n^2 - m^2)
        otherwise:          0

    (for k and m both at +-n the pole is double with constant numerator,
    so the integral still vanishes).  For the Dirichlet lattice "+-n"
    degenerates to {n}.  k and m are indices or index arrays (broadcast).
    """
    k, m, levels = np.asarray(k), np.asarray(m), bc.level_indices(n)
    k_hits, m_hits = np.isin(k, levels), np.isin(m, levels)
    W = coupling(pot, bc, k, m)
    den = np.where(m_hits, n * n - k * k, n * n - m * m)
    return np.divide(W, den, out=np.zeros(W.shape, complex), where=k_hits != m_hits)[()]


def quadrature_vs_residue_check(pot, bc: BoundaryCondition, n: int,
                                half_width: int, nodes: int = 64) -> float:
    """Entrywise gap between quadrature and closed form of the first-order term.

    Integrates D(z) W D(z) with D(z) = diag(1/(z - k^2)) and W the
    ``coupling`` on the basis over the level-n circle using exactly
    ``nodes`` trapezoid points and compares against ``first_order_residue``
    on every (k, m).
    """
    basis = basis_for(bc, half_width)
    _check_level(basis, n)
    idx = np.array(basis.indices)
    k, m = idx[:, None], idx[None, :]
    W = coupling(pot, bc, k, m)

    sq = (idx * idx).astype(float)
    c, R = float(n * n), float(n)
    quad = np.zeros_like(W)
    for th in 2.0 * np.pi * np.arange(nodes) / nodes:
        z = c + R * np.exp(1j * th)
        d = 1.0 / (z - sq)
        quad += np.exp(1j * th) * (np.outer(d, d) * W)
    quad *= R / nodes
    return float(np.abs(quad - first_order_residue(pot, bc, n, k, m)).max())


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


def rectangle_projection(H: HillMatrix, N: int) -> ProjectionPair:
    """Projection onto all spectrum in {-N < Re z < N^2+N, |Im z| < N}.

    Any contour that encloses exactly the rectangle's eigenvalues gives
    the same projection, so the circle rule of ``riesz_projection`` runs
    on |z - N^2/2| = N^2/2 + N, which passes through both real endpoints
    of the rectangle.  ``_gate`` guards the circle, and the eigenvalues
    inside it must be exactly those inside the rectangle, and their number
    the count of free indices k with k^2 < N^2 + N (else
    ``RankMismatch``).  Returns the pair of the circle, with n = N.
    """
    c, R = complex(N * N / 2), N * N / 2 + N
    vals = H.eigenvalues()
    in_rect = (vals.real > -N) & (vals.real < N * N + N) & (np.abs(vals.imag) < N)
    idx = np.array(H.basis.indices)
    cols = np.flatnonzero(idx * idx < N * N + N)
    return _circle_rules(H, [(N, cols, c, R, _gate(H, c, R, len(cols), in_rect))])[0]


def block_projection(H: HillMatrix, N0: int, N: int) -> ProjectionPair:
    """S_N = S_{N0} + sum of level projections for N0 < k <= N, as one pair.

    S_{N0} comes from ``rectangle_projection``, the remaining levels from
    ``riesz_projections``: one circle rule throughout.  Levels follow the
    boundary-condition parity, and the first level that fails its
    preconditions raises its error.  X = [X_i], Y = [Y_i]; the
    evidence is the worst part's (largest estimate, smallest margin, every
    part converged, the radius and rate of the largest rate) and
    ``nodes_used`` sums the parts'.
    """
    if N < N0:
        raise ValueError("N must be >= N0")
    parts = [rectangle_projection(H, N0)]
    pairs, errors = riesz_projections(
        H, [k for k in range(N0 + 1, N + 1) if H.basis.bc.level_ok(k)])
    if errors:
        raise next(iter(errors.values()))
    parts += pairs.values()
    cols = np.concatenate([p.cols for p in parts])
    slowest = max(parts, key=lambda p: p.rate)
    return ProjectionPair(
        N, H.basis, np.hstack([p.X for p in parts]), np.hstack([p.Y for p in parts]), cols,
        quad_error_est=max(p.quad_error_est for p in parts),
        nodes_used=sum(p.nodes_used for p in parts),
        converged=all(p.converged for p in parts),
        guard_margin=min(p.guard_margin for p in parts),
        radius=slowest.radius, rate=slowest.rate)


def validated_levels(H: HillMatrix, candidates):
    """Levels passing the preconditions of ``riesz_projection``.

    The smallest returned level is the empirical onset of the asymptotic
    regime for this potential and truncation (it is potential-dependent
    and is reported, never assumed).
    """
    return [circle[0] for circle in _level_circles(H, candidates)[0]]
