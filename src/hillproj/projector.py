"""Riesz projections by contour quadrature of the resolvent.

One engine serves every contour.  A projection P of rank r is recovered
from its action on r free columns E = I[:, cols].  A contour rule with
nodes z_j and weights w_j gives the moments (``_moments``)

    M ~ scale * sum_j w_j (z_j - L)^(-1) E       ~ P E,

and ``_factors`` keeps P = X Y^T with X = M (E^T M)^(-1) and Y = P^T E,
which is exact for a rank-r projection whenever E^T P E is invertible.
The formula forces rank r, so every contour must enclose exactly r
eigenvalues.  One circle rule, ``_circle``, serves every contour (level,
block S_N): it refuses a defining circle with an eigenvalue near it
(``EigenvalueOnContour``) or without exactly r eigenvalues inside
(``RankMismatch``), and picks the circle integrated.  One lattice check,
``_check_level``, refuses a level off the basis lattice
(``IndexOutOfBasis``).

Y needs no second set of solves.  Every Hill matrix has the transpose
symmetry of its lattice, L^T = L[p][:, p] (``BasisSpec.transpose_perm``:
k -> -k for per+-, the identity for Dirichlet; ``HillMatrix`` checks it),
so (z - L)^(-T) = (z - L)^(-1)[p][:, p] node by node, for every contour,
weight and potential.  The columns of every contour here are closed
under p, p[cols] = cols[s], hence Y = M[p][:, s].

No quantity forms P densely: B = P - E E^T = [X, -E] [Y, E]^T and P^2 - P
take their norms from a 2r x 2r core of thin QRs of two N x 2r factors
(``_core``), in O(N r^2).  Only sum |B_km| visits every entry of B, in row blocks.

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
of ``_NODE_BLOCK``.

A real L (stored as float64 by ``HillMatrix``) keeps real arithmetic
outside the sweep.  On a circle with a real centre its nodes come in
conjugate pairs, whose solves are conjugate too: a circle of Q nodes
sweeps Q // 2 + 1 of them, and the moments, X, Y, the ``_core``s and
sum |B_km| are real (``_circle_rules``).

The level projection over the disc |z - n^2| < n has r = 2 (periodic
families, E = [e_{+-n}]) or r = 1 (Dirichlet, E = [e_n]); its defining
circle is the paper's C_n = {|z - n^2| = n}.  The block projection S_N
onto all spectrum in the rectangle {-N < Re z < N^2 + N, |Im z| < N} is
one circle too (``rectangle_projection``): |z - N^2/2| = N^2/2 + N passes
through the rectangle's real endpoints, must hold the same eigenvalues as
the rectangle, and E holds every index k^2 < N^2 + N.

Every defining circle |z - c| = R is the gate, and its margin is the
reported guard margin.  ``_circle`` picks a smaller circle to integrate
and, before any solve, the node count whose error bound meets ``_TOL``
for every L (``_nodes``, with the condition numbers of a non-Hermitian L's
eigenvalues).  The free projection is the exact coordinate projection
onto ``level_indices``.
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
    "validated_levels",
]

GUARD_FRACTION = 0.05  # reject contours with an eigenvalue within 5% of radius
_TOL, _MAX_NODES = 1e-10, 512  # the stopping rule of every contour
_C0 = 4.0  # the reconstruction constant a certified node count is picked for (``_circle``)
_EPS = float(np.finfo(float).eps)
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

    n: int  # the level n, or the N of a block S_N
    basis: BasisSpec
    X: np.ndarray
    Y: np.ndarray
    cols: np.ndarray
    quad_error_est: float
    nodes_used: int
    converged: bool  # the quadrature part of quad_error_est < _TOL
    guard_margin: float  # nearest eigenvalue-to-gate-circle distance / its radius
    radius: float  # of the integration circle
    rate: float  # a priori per-node decay of the trapezoid error on it (``_circle``)
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


def _radius(d_in: float, d_out: float, R: float, floor: float) -> float:
    """The ``_circle`` radius sqrt(d_in d_out), at least ``floor``, at most R."""
    return min(max(float(np.sqrt(d_in * d_out)), floor), R)


def _nodes(t: np.ndarray, kappa: np.ndarray | None, delta: float, C: float) -> tuple[int, float]:
    """(Q, err): the smallest Q <= _MAX_NODES with C err <= _TOL - min(delta, _TOL / 2), err
    the ``_circle`` bound at t = (lambda - c) / rho: terms |tau^Q / (1 - tau^Q)| in
    root-sum-square (kappa None) or weighted by kappa.  Each lies in [r^Q / (1 + r^Q),
    r^Q / (1 - r^Q)], r = max |tau|, and kappa >= 1: that brackets Q, evaluated at once."""
    tau = np.divide(1, t, out=t.copy(), where=np.abs(t) > 1)
    e, r = (_TOL - min(delta, _TOL / 2)) / C, float(np.abs(tau).max())
    weight = np.sqrt(len(tau)) if kappa is None else float(kappa.sum())
    lo, hi = (int(np.ceil(np.log(e / s) / np.log(r))) for s in (1 - e, weight + e))
    Qs = np.arange(min(max(lo, 1), _MAX_NODES), min(hi, _MAX_NODES) + 1)
    tq = np.power.outer(tau, Qs)
    terms = np.abs(tq / (1 - tq))
    err = np.sqrt((terms ** 2).sum(axis=0)) if kappa is None else kappa @ terms
    i = int(np.argmax(err <= e)) if (err <= e).any() else -1
    return int(Qs[i]), float(err[i])


def _circle(H: HillMatrix, n: int, cols: np.ndarray, center: complex, R: float,
            region: np.ndarray | None = None) -> tuple:
    """The circle (n, cols, center, rho, margin, rate, Q, err, delta) of
    ``_circle_rules`` for the rank-r projection n, r = len(cols), defined
    by |z - center| = R, from one pass over ``H.eigenvalues()``.

    The gate: every eigenvalue keeps GUARD_FRACTION * R away from the
    defining circle (else ``EigenvalueOnContour``), which holds exactly r
    of them, those of the mask ``region`` when given (else
    ``RankMismatch``); ``margin`` is the nearest eigenvalue-to-circle
    distance / R.  With d_in the farthest distance inside and d_out the
    nearest outside, rho is the ``_radius``, or R where an eigenvalue
    would come within GUARD_FRACTION * rho of it; |z - center| < rho must
    hold the same eigenvalues (else ``RankMismatch``).  The trapezoid
    error there decays like rate^Q, rate = max(d_in / rho, rho / d_out)
    (Trefethen & Weideman, SIAM Review 56 (2014)).

    ||X Y^T - P||_F is about C err + ||P||^2 delta; ``_nodes`` picks Q at C = _C0.
    - err.  With eigen-triplets (lambda, v, w), w^H v = 1, and t = (lambda - center) / rho,
      P_Q = sum v w^H / (1 - t^Q), so ||P_Q - P||_F <= err = sum kappa |tau^Q / (1 - tau^Q)|,
      tau = t inside and 1 / t outside, kappa = ||v|| ||w|| (Golub & Van Loan, 7.2.2);
      Hermitian L: the root-sum-square.  Risk: kappa comes from ``eig()``, as the dense
      oracle's P does; the tests also check P on the dense inverse node sum.
    - C.  X Y^T = F(P_Q), F(S) = S E (E^T S E)^-1 E^T S, F(P) = P.  With A = E^T P E,
      X = P E A^-1 and Z = P^T E A^-T = X[p][:, s] (transpose symmetry), dF = D E Z^T +
      X E^T D - X (E^T D E) Z^T to first order, D = P_Q - P, so C = 2 ||X|| + ||X||^2 on
      the computed X (Hermitian L: ||X||^2 = ||A^-1||); _C0 holds while ||X|| <= sqrt(5) - 1.
    - delta = eps max|lambda| / (rho - d_in): the solves are backward stable to about
      eps max|lambda|, amplified by 1 / (rho - d_in), and by ||P||^2 for non-normal L
      (first-order perturbation).  A model, not a bound: errors were at most 0.42 delta
      against eigh (4 Hermitian potentials x 3 lattices x K 64, 256) and 0.33 of the
      estimate against the dense inverse node sum (3 non-Hermitian potentials x K 64,
      256; ||P|| up to 400, where delta alone fell 100 times short).  No node count
      removes it: Q keeps C err <= _TOL - min(delta, _TOL / 2).
    - The floor rho >= d_in + 2 kappa_in eps max|lambda| / _TOL (kappa_in the largest
      kappa inside, 1 for Hermitian L) keeps kappa_in delta <= _TOL / 2 where R allows.
      Without it, eigenvalues n^2 that eigvalsh put 1e-12 apart gave rho ~ 1e-6 and P off
      by 8e-7; without kappa_in, a Jordan block at the centre lost 1.4e-9 on
      rho = 0.0045, where the resolvent grows like (z - lambda)^-2.
    """
    vals = H.eigenvalues()
    dist = np.abs(vals - center)
    gap = np.abs(dist - R).min()
    if gap < GUARD_FRACTION * R:
        raise EigenvalueOnContour(
            f"eigenvalue within {GUARD_FRACTION:.2f}*radius of |z-{center}|={R}")
    inside = dist < R
    if (count := int(np.count_nonzero(inside))) != len(cols):
        raise RankMismatch(f"{count} eigenvalue(s) in |z-{center}|<{R}, "
                           f"expected {len(cols)} for {H.basis.bc.value}")
    if region is not None and not np.array_equal(inside, region):
        raise RankMismatch(f"{np.count_nonzero(inside != region)} eigenvalue(s) in only "
                           f"one of |z-{center}|<{R} and its region")
    d_in, d_out = float(dist[inside].max(initial=0.0)), float(dist[~inside].min(initial=np.inf))
    rounding, (lam, kappa) = _EPS * float(np.abs(vals).max()), H.eigenvalue_conditions()
    kappa_in = 1.0 if kappa is None else float(kappa[np.abs(lam - center) < R].max(initial=1))
    rho = _radius(d_in, d_out, R, d_in + 2 * kappa_in * rounding / _TOL)
    if np.abs(dist - rho).min() < GUARD_FRACTION * rho:
        rho = R
    if not np.array_equal(dist < rho, inside):
        raise RankMismatch(f"{np.count_nonzero((dist < rho) != inside)} eigenvalue(s) in "
                           f"only one of |z-{center}|<{rho} and |z-{center}|<{R}")
    delta = rounding / (rho - d_in)
    return (n, cols, center, rho, float(gap) / R, max(d_in / rho, rho / d_out),
            *_nodes((lam - center) / rho, kappa, delta, _C0), delta)


def _check_level(basis: BasisSpec, n: int) -> None:
    """Raise ``IndexOutOfBasis`` unless n is a level of the basis lattice:
    the parity of its boundary condition, with every level index in the basis."""
    if not (basis.bc.level_ok(n) and basis.contains_level(n)):
        raise IndexOutOfBasis(
            f"level {n} is not a level of the {basis.bc.value} basis "
            f"of half-width {basis.half_width}")


def _check_truncation(basis: BasisSpec, n: int) -> None:
    """Raise ``TruncationTooSmall`` unless the half-width is at least 4n, so
    that a contour reaching Re z ~ n^2 stays well inside the truncated spectrum."""
    if basis.half_width < 4 * n:
        raise TruncationTooSmall(
            f"half-width {basis.half_width} < 4*n = {4 * n}; resolvent accuracy "
            "degrades when the contour approaches the truncation edge")


def _level_cols(H: HillMatrix, n: int) -> np.ndarray:
    """Check the lattice and truncation preconditions of ``riesz_projection``;
    return the positions of e_{+-n}."""
    basis = H.basis
    _check_level(basis, n)
    _check_truncation(basis, n)
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


def _moments(H: HillMatrix, cols: np.ndarray, zs: np.ndarray, ws: np.ndarray,
             group: np.ndarray, real: bool = False) -> np.ndarray:
    """sum_{group[j] = g} w_j (z_j - L)^-1 E_g, E_g = I[:, cols[g]], for each
    row g of the G x r ``cols``, from flat nodes ``zs``, weights ``ws`` and
    groups ``group`` (any count per group): G x N x r, or with ``real``
    their real parts.  With L = Q A Q^H (``H.hessenberg()``), one
    ``apply_q`` takes every E_g in and one takes every sum back; each chunk
    of ``_NODE_BLOCK`` nodes is swept and summed into its groups by one
    product with its weights.
    """
    band, h, _ = H.hessenberg()
    (G, r), N = cols.shape, H.size
    E = np.zeros((N, G * r))
    E[cols.ravel(), np.arange(G * r)] = 1.0
    # complex once per call: the sweep writes its solutions over its right-hand sides
    rhs = H.apply_q(E, adjoint=True).astype(complex, copy=False)
    rhs = rhs.reshape(N, G, r).transpose(0, 2, 1)  # N x r x G
    acc = np.zeros((N * r, G), dtype=complex)
    for i in range(0, len(zs), _NODE_BLOCK):
        j, g = slice(i, i + _NODE_BLOCK), group[i:i + _NODE_BLOCK]
        lo, hi = g.min(), g.max() + 1
        x = _hessenberg_sweep(band, h, rhs[:, :, g], zs[j])
        acc[:, lo:hi] += x.reshape(N * r, -1) @ (ws[j, None] * (g[:, None] == np.arange(lo, hi)))
    M = acc.reshape(N, r, G).transpose(0, 2, 1).reshape(N, G * r)
    return H.apply_q(M.real if real else M).reshape(N, G, r).transpose(1, 0, 2)


def _factors(M: np.ndarray, cols: np.ndarray, p: np.ndarray, scale: complex):
    """(X, Y): P = X Y^T with X = PE (E^T PE)^-1 and Y = P^T E, from the
    scaled moments PE = scale M ~ P E.

    Y comes from PE by the transpose symmetry L^T = L[p][:, p], which every
    Riesz projection of L inherits: P^T = P[p][:, p].  With
    p[cols] = cols[s] that is Y = PE[p][:, s].
    """
    PE = scale * M
    return PE @ np.linalg.inv(PE[cols]), PE[p][:, np.searchsorted(cols, p[cols])]


def free_projection(basis: BasisSpec, n: int) -> np.ndarray:
    """Dense coordinate projection onto the ``level_indices`` of n, for the oracles."""
    _check_level(basis, n)
    P0 = np.zeros((basis.size, basis.size), dtype=complex)
    for k in basis.bc.level_indices(n):
        P0[basis.position(k), basis.position(k)] = 1.0
    return P0


def _circle_rules(H: HillMatrix, circles: list) -> list[ProjectionPair]:
    """The pairs of the ``_circle``s (n, cols, c, R, margin, rate, Q, err,
    delta), all of rank len(cols), by the Q-node trapezoidal rule on
    |z - c| = R, each round in one ``_moments`` call: estimate C err +
    ||P||^2 delta, C = 2 ||X|| + ||X||^2 and ||P|| on the factors (||P|| = 1
    for Hermitian L), and again at the Q a measured C > _C0 needs.
    Converged: C err < _TOL.

    A real L with real centres sweeps the nodes j = 0 .. Q // 2 only, at
    weight 2 for 0 < j < Q / 2: (conj(z) - L)^-1 = conj((z - L)^-1), so the
    real part of that sum is the Q-node sum.  ``nodes_used`` counts Q.
    """
    if not circles:
        return []
    ns, cols, c, R, margins, rates, used, err, delta = map(list, zip(*circles))
    cols, c, R = np.array(cols), np.array(c, dtype=complex), np.array(R, dtype=float)
    p = H.basis.transpose_perm()
    assert all(np.array_equal(np.sort(p[cl]), cl) for cl in cols), "cols not closed under p"
    half, (lam, kappa) = np.isrealobj(H.L) and not c.imag.any(), H.eigenvalue_conditions()
    f, quad, run = [None] * len(cols), [np.inf] * len(cols), list(range(len(cols)))
    while run:
        # each circle's Q-grid afresh; for ``half``, its nodes 0 .. Q // 2
        js = [np.arange(used[g] // 2 + 1 if half else used[g]) for g in run]
        group = np.repeat(np.arange(len(run)), [len(j) for j in js])
        gs = np.array(run)[group]  # the circle of each node
        j, Q = np.concatenate(js), np.array(used)[gs]
        w = np.exp(2j * np.pi * j / Q)
        folded = half & (j > 0) & (2 * j < Q)  # node j stands for j and Q - j
        Ms = _moments(H, cols[run], c[gs] + R[gs] * w, w * (1 + folded), group, real=half)
        again = []
        for g, M in zip(run, Ms):
            f[g] = _factors(M, cols[g], p, R[g] / used[g])
            x = float(np.linalg.norm(f[g][0], 2))  # ||X||_2
            quad[g] = (C := 2.0 * x + x * x) * err[g]
            t = (lam - c[g]) / R[g]  # Q met _TOL at _C0; does it at C?
            if C > _C0 and (retry := _nodes(t, kappa, delta[g], C))[0] > used[g]:
                used[g], err[g] = retry
                again.append(g)
        run = again
    p2 = [1.0 if H.hermitian else float(np.linalg.norm(_core(*fg), 2)) ** 2 for fg in f]
    return [ProjectionPair(ns[g], H.basis, *f[g], cols[g],
                           quad_error_est=quad[g] + p2[g] * delta[g],
                           nodes_used=used[g], converged=quad[g] < _TOL,
                           guard_margin=margins[g], radius=float(R[g]),
                           rate=rates[g]) for g in range(len(cols))]


_LEVEL_ERRORS = (IndexOutOfBasis, TruncationTooSmall, EigenvalueOnContour, RankMismatch)


def _level_circles(H: HillMatrix, levels) -> tuple[list, dict]:
    """The ``_circle``s of C_n = {|z - n^2| = n} for the levels that pass
    ``_level_cols`` and its gate, and {n: error} for the others."""
    circles, errors = [], {}
    for n in levels:
        try:
            circles.append(_circle(H, n, _level_cols(H, n), complex(n * n), float(n)))
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
    W = coupling(pot, bc, k, m).astype(complex, copy=False)  # complex for every potential
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

    u = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    D = 1.0 / (n * n + n * u - k * k)  # size x nodes: D(z) at every node
    quad = ((D * u) @ D.T) * W * (n / nodes)
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
    """The block projection S_N onto all spectrum in
    {-N < Re z < N^2+N, |Im z| < N}, as one pair with n = N.

    Any contour that encloses exactly the rectangle's eigenvalues gives
    the same projection.  The defining circle |z - N^2/2| = N^2/2 + N
    passes through both real endpoints of the rectangle; its ``_circle``
    gate requires the eigenvalues inside it to be exactly those inside the
    rectangle, and their number the count of free indices k with
    k^2 < N^2 + N (else ``RankMismatch``), and the levels' radius rule
    picks the circle integrated.  The half-width must be at least 4N, as
    for the level N (else ``TruncationTooSmall``).
    """
    _check_truncation(H.basis, N)
    vals = H.eigenvalues()
    in_rect = (vals.real > -N) & (vals.real < N * N + N) & (np.abs(vals.imag) < N)
    idx = np.array(H.basis.indices)
    cols = np.flatnonzero(idx * idx < N * N + N)
    return _circle_rules(H, [_circle(H, N, cols, complex(N * N / 2), N * N / 2 + N,
                                     in_rect)])[0]


def validated_levels(H: HillMatrix, candidates):
    """Levels passing the preconditions of ``riesz_projection``.

    The smallest returned level is the empirical onset of the asymptotic
    regime for this potential and truncation (it is potential-dependent
    and is reported, never assumed).
    """
    return [circle[0] for circle in _level_circles(H, candidates)[0]]
