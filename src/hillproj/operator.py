"""Truncated Fourier-basis matrices of Hill operators.

For each boundary condition the operator -y'' + v(x) y acts on an index
lattice of exponentials (periodic: 2Z, antiperiodic: 1+2Z) or sines
(Dirichlet: N).  The truncated matrix is

    L[k, m] = k^2 delta_km + v0 delta_km + W(k, m).

This module alone reads a potential's coefficient tables: ``coupling``
turns them into the coupling W, ``assemble`` lays the same entries into L
and counts the known ones (each boundary condition's coverage rule, once),
and ``majorant_for`` turns them into the majorant the bounds read.  For
Per+- the coupling is V(k - m) = (k - m) w(k - m),
the Fourier coefficients of v - v0.  For Dirichlet it is

    W(k, m) = (|k-m| qt(|k-m|) - (k+m) qt(k+m)) / sqrt(2),

with qt the sine coefficients of the antiderivative Q of v - v0.  Since
Q' = sum V(m) e^{imx}, a FourierPotential carries Q = -i sum w(m) e^{imx},
and ``per_to_dir`` gives its sine data, so the same potential denotes the
same v under every boundary condition.  Note the Dirichlet coupling has a
nonzero diagonal of its own (-2k qt(2k)/sqrt(2)) on top of v0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .potential import (FourierPotential, MajorantSeq, SinePotential, majorant,
                        majorant_dir, per_to_dir)

__all__ = [
    "BcMismatch",
    "InsufficientCoefficients",
    "BoundaryCondition",
    "BasisSpec",
    "HillMatrix",
    "basis_for",
    "coupling",
    "majorant_for",
    "assemble",
]


class BcMismatch(TypeError):
    """Potential representation does not fit the boundary condition."""


class InsufficientCoefficients(ValueError):
    """Potential truncation covers too few of the required couplings."""


class BoundaryCondition(Enum):
    PER_PLUS = "per+"
    PER_MINUS = "per-"
    DIRICHLET = "dir"

    @classmethod
    def parse(cls, text: str) -> "BoundaryCondition":
        key = text.strip().lower()
        aliases = {
            "per+": cls.PER_PLUS, "per_plus": cls.PER_PLUS, "periodic": cls.PER_PLUS,
            "per-": cls.PER_MINUS, "per_minus": cls.PER_MINUS,
            "antiperiodic": cls.PER_MINUS,
            "dir": cls.DIRICHLET, "dirichlet": cls.DIRICHLET,
        }
        if key not in aliases:
            raise ValueError(f"unknown boundary condition {text!r}")
        return aliases[key]

    @property
    def is_periodic_family(self) -> bool:
        return self in (BoundaryCondition.PER_PLUS, BoundaryCondition.PER_MINUS)

    @property
    def rank(self) -> int:
        """Multiplicity of the free level n^2: 2 for Per+-, 1 for Dirichlet."""
        return 2 if self.is_periodic_family else 1

    @property
    def basis_sup(self) -> float:
        """Sup norm of the basis functions: 1 for exponentials, sqrt(2) for sines."""
        return 1.0 if self.is_periodic_family else math.sqrt(2.0)

    def level_ok(self, n: int) -> bool:
        """n >= 1 is a level of the lattice: even for Per+, odd for Per-, any for Dirichlet."""
        if self is BoundaryCondition.DIRICHLET:
            return n >= 1
        return n >= 1 and n % 2 == (self is BoundaryCondition.PER_MINUS)

    def level_indices(self, n: int) -> tuple[int, ...]:
        """Free indices of the level n^2: (n, -n) for Per+-, (n,) for Dirichlet."""
        return (n, -n)[:self.rank]


@dataclass(frozen=True)
class BasisSpec:
    """Ordered truncated index set for one boundary condition."""

    bc: BoundaryCondition
    half_width: int
    indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    def position(self, k: int) -> int:
        try:
            return self.indices.index(k)
        except ValueError:
            raise KeyError(f"index {k} not in basis") from None

    def contains_level(self, n: int) -> bool:
        return all(k in self.indices for k in self.bc.level_indices(n))

    def transpose_perm(self) -> np.ndarray:
        """Positions p with L^T = L[p][:, p] for every Hill matrix on this basis.

        Per+-: p reverses the symmetric index set, k -> -k, since the
        coupling V(k - m) depends on k - m alone: L[-k, -m] = V(m - k) =
        L[m, k].  Dirichlet: the identity, since its coupling is symmetric
        in (k, m).
        """
        pos = np.arange(self.size)
        return pos[::-1] if self.bc.is_periodic_family else pos


def basis_for(bc: BoundaryCondition, half_width: int) -> BasisSpec:
    if half_width < 1:
        raise ValueError("half_width must be positive")
    if bc is BoundaryCondition.PER_PLUS:
        idx = tuple(k for k in range(-half_width, half_width + 1) if k % 2 == 0)
    elif bc is BoundaryCondition.PER_MINUS:
        idx = tuple(k for k in range(-half_width, half_width + 1) if k % 2 != 0)
    else:
        idx = tuple(range(1, half_width + 1))
    return BasisSpec(bc, half_width, idx)


class HillMatrix:
    """Dense truncated matrix L of L_bc: the free diagonal k^2 plus v0 and
    the coupling (``assemble``).

    Immutable after assembly: a copy of the caller's L is kept, read-only,
    as float64 exactly when its imaginary part is all zeros (every real
    potential under Dirichlet, every even real one under Per+-), else as
    complex128.  Everything derived from a real L stays real: the
    eigenvalue routines, the reduction, Q and the band of its form run in
    real arithmetic.  Derived data is computed lazily and cached, since
    several consumers share it: the eigenvalues (localization counts,
    contour guards), the full eigendecomposition (the dense-eigendecomposition
    projector) and the Hessenberg form L = Q A Q^H (every contour
    quadrature, which solves its shifted systems on A): the band of A and
    the reflectors whose product is Q, never an N x N Q.  ``hermitian``
    records whether L == L^H bit for bit, as for every real potential
    (v0 real, w(-m) == -conj(w(m))) under every boundary condition; then
    the Hessenberg form is tridiagonal, reduced blockwise, and the
    eigenvalues come from ``np.linalg.eigvalsh``.  Eigenvalues skip the
    eigenvectors, and never come from ``eig()`` or the Hessenberg form, so
    the guards read one source and stay independent of the quadrature.

    Every matrix must satisfy the transpose symmetry of its lattice,
    L^T = L[p][:, p] for p = ``basis.transpose_perm()``, bit for bit
    (else ``ValueError``): the contour quadrature takes the moments of
    (z - L)^-T from those of (z - L)^-1 by it.  ``assemble`` meets it for
    every potential, complex ones included.
    """

    def __init__(self, basis: BasisSpec, L: np.ndarray, coverage: float = 1.0):
        L = _real(np.asarray(L))
        # a copy: the caller's array stays writable, and H does not see its writes
        self._keep(basis, np.array(L, dtype=np.result_type(L, float)), coverage)

    def _keep(self, basis: BasisSpec, L: np.ndarray, coverage: float):
        """Keep L itself (float64, or complex128 with an imaginary part),
        read-only: ``assemble`` hands over the L that only it holds."""
        self.basis, self.L, self.coverage = basis, L, float(coverage)
        self.L.setflags(write=False)
        # L[p][:, p] as a view: p reverses the per+- lattice and fixes the Dirichlet one
        p = slice(None, None, -1 if basis.bc.is_periodic_family else 1)
        if not np.array_equal(self.L.T, self.L[p, p]):
            raise ValueError(f"L^T != L[p][:, p] for the {basis.bc.value} lattice symmetry p")
        # L == L^H a block of rows at a time: conj() copies only a block of a complex L
        self.hermitian = all(np.array_equal(self.L[i:i + _ROWS], self.L[:, i:i + _ROWS].conj().T)
                             for i in range(0, len(self.L), _ROWS))
        self._eig = None
        self._kappa = None
        self._vals = None
        self._hess = None

    @property
    def size(self) -> int:
        return self.basis.size

    def eig(self):
        """Cached (eigenvalues, right eigenvectors, inverse eigenvector matrix),
        real arrays for a real L with a real spectrum."""
        if self._eig is None:
            vals, vecs = np.linalg.eig(self.L)
            self._eig = (vals, vecs, np.linalg.inv(vecs))
        return self._eig

    def eigenvalue_conditions(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(eigenvalues, kappa = ||v|| ||w||, w^H v = 1) for contour node counts:
        ``eigenvalues()`` and None (kappa = 1) for Hermitian L, else the cached values
        of ``eig``, whose N x N eigenvectors stay cached only if ``eig`` cached them."""
        if self.hermitian:
            return self.eigenvalues(), None
        if self._kappa is None:
            kept, (vals, V, Vinv) = self._eig, self.eig()
            self._eig, self._kappa = kept, (vals, np.linalg.norm(V, axis=0)
                                            * np.linalg.norm(Vinv, axis=1))
        return self._kappa

    def eigenvalues(self) -> np.ndarray:
        """Cached eigenvalues from ``eigvals``, or for Hermitian L
        ``eigvalsh``: ascending, with exactly zero imaginary parts; complex
        for every L, real ones included.  They
        never come from ``eig()``, so the guards read the same values
        whether or not the dense oracle ran first.
        """
        if self._vals is None:
            self._vals = (np.linalg.eigvalsh(self.L) if self.hermitian
                          else np.linalg.eigvals(self.L)).astype(complex, copy=False)
        return self._vals

    def hessenberg(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Cached (band, h, panels): the sweep operands of the Hessenberg form
        A of L = Q A Q^H, and Q as compact-WY panels.

        ``band`` and ``h`` are those of ``_band`` for A.  Q = H_1 H_2 ...
        is the product of the reflectors H_k = I - tau_k v_k v_k^H, each
        zeroing column k of the partly reduced L below its subdiagonal; a
        column already zero there keeps no reflector (tau_k = 0).
        ``panels`` holds them ``_PANEL`` at a time as (o, V, T), with
        H_k ... H_{k+nb-1} = I - V T V^H acting on rows o onward, and
        drops a panel with no reflector, so a diagonal L keeps none.  ``apply_q`` applies Q or
        Q^H: Q is never formed, and A is kept only as its band (N x 2 for
        Hermitian L).  Every array has the dtype of L: real for a real L.

        Hermitian L is reduced to tridiagonal A by ``_tridiagonalize``;
        any other L by an unblocked Householder loop to upper Hessenberg
        A, whose entries below the subdiagonal are set to exact zeros
        (they are O(eps ||L||)).
        """
        if self._hess is None:
            if self.hermitian:
                d, e, reflectors = _tridiagonalize(self.L)
                band = np.zeros((self.size, 2), dtype=self.L.dtype)
                band[1:, 0], band[:, 1], h = -e.conj(), -d, -e
            else:
                A, reflectors = _hessenberg_reduce(self.L)
                band, h = _band(A)
            panels = tuple((o, V, _wy_factor(V, tau)) for o, V, tau in reflectors if tau.any())
            for a in (band, h, *(a for _, V, T in panels for a in (V, T))):
                a.setflags(write=False)
            self._hess = (band, h, panels)
        return self._hess

    def apply_q(self, X: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
        """Q X, or Q^H X with ``adjoint``, for the Q of ``hessenberg()``
        and X with N rows: one compact-WY block product per panel, in real
        arithmetic when both L and X are real."""
        X = np.array(X, dtype=np.result_type(X, self.L))
        panels = self.hessenberg()[2]
        for o, V, T in (panels if adjoint else reversed(panels)):
            X[o:] -= V @ ((T.conj().T if adjoint else T) @ (V.conj().T @ X[o:]))
        return X


_ROWS = 64  # rows per block of the Hermitian check in ``HillMatrix._keep``
_PANEL = 32  # reflectors per panel of the blocked reduction and of Q's compact-WY blocks


def _reflector(x: np.ndarray) -> tuple[np.ndarray | None, complex, complex]:
    """(v, tau, beta) with (I - tau v v^H)^H x = beta e_1, v[0] = 1 and beta
    real, as LAPACK's zlarfg (dlarfg for real x: v and tau real too);
    (None, 0, x[0]) when x[1:] is already zero."""
    if not x[1:].any():
        return None, 0.0, x[0]
    alpha = x[0]
    beta = -math.copysign(float(np.linalg.norm(x)), alpha.real)
    v = x / (alpha - beta)
    v[0] = 1.0
    return v, (beta - alpha) / beta, beta


def _tridiagonalize(L: np.ndarray):
    """(d, e, reflectors): Hermitian L = Q A Q^H with A tridiagonal, diagonal
    d and subdiagonal e, blocked as LAPACK's zhetrd/zlatrd; a real
    symmetric L keeps real arithmetic throughout (dsytrd/dlatrd).

    Each panel of ``_PANEL`` columns forms its reflectors from the columns
    as updated by the panel's earlier reflectors, kept as V and W with the
    trailing block S of the panel's start standing for S - V W^H - W V^H,
    and ends with that one rank-2k update of S, ``4 * _PANEL`` rows at a
    time so that no transient grows like S.  ``reflectors`` holds each
    panel's (o, V, tau), V's rows starting at row o of L.
    """
    N = len(L)
    A = np.array(L)
    d, e = np.empty(N), np.empty(N - 1, dtype=A.dtype)
    reflectors = []
    for k0 in range(0, N - 1, _PANEL):
        nb = min(_PANEL, N - 1 - k0)
        V = np.zeros((N - k0, nb), dtype=A.dtype)  # row k0 + j at V[j]
        W = np.zeros_like(V)
        tau = np.zeros(nb, dtype=A.dtype)
        for i in range(nb):
            k = k0 + i
            col = A[k:, k] - V[i:, :i] @ W[i, :i].conj() - W[i:, :i] @ V[i, :i].conj()
            d[k] = col[0].real
            v, tau[i], e[k] = _reflector(col[1:])
            if tau[i] == 0:
                continue
            V[i + 1:, i] = v
            Vr, Wr = V[i + 1:, :i], W[i + 1:, :i]
            w = tau[i] * (A[k + 1:, k + 1:] @ v - Vr @ (Wr.conj().T @ v) - Wr @ (Vr.conj().T @ v))
            W[i + 1:, i] = w - (0.5 * tau[i] * np.vdot(w, v)) * v
        k1 = k0 + nb
        U, Z = np.hstack([V[nb:], W[nb:]]), np.hstack([W[nb:], V[nb:]]).conj().T
        for i in range(k1, N, 4 * _PANEL):
            A[i:i + 4 * _PANEL, k1:] -= U[i - k1:i - k1 + 4 * _PANEL] @ Z
        reflectors.append((k0 + 1, V[1:], tau))
    d[N - 1] = A[N - 1, N - 1].real
    return d, e, reflectors


def _hessenberg_reduce(L: np.ndarray):
    """(A, reflectors): L = Q A Q^H with A upper Hessenberg, one column at a
    time as LAPACK's zgehd2: the ``_reflector`` H = I - tau v v^H of the
    column below the diagonal gives A <- H^H A H, and the column becomes
    (beta, 0, ...).  Grouped into panels of ``_PANEL`` as for
    ``_tridiagonalize``, in the dtype of L."""
    N = len(L)
    A = np.array(L)
    reflectors = []
    for k0 in range(0, N - 1, _PANEL):
        nb = min(_PANEL, N - 1 - k0)
        V = np.zeros((N - k0 - 1, nb), dtype=A.dtype)  # row k0 + 1 + j at V[j]
        tau = np.zeros(nb, dtype=A.dtype)
        for i in range(nb):
            k = k0 + i
            v, tau[i], beta = _reflector(A[k + 1:, k])
            if tau[i] == 0:
                continue
            A[k + 1:, k + 1:] -= np.outer(tau[i].conjugate() * v, v.conj() @ A[k + 1:, k + 1:])
            A[:, k + 1:] -= np.outer(tau[i] * (A[:, k + 1:] @ v), v.conj())
            A[k + 1, k], A[k + 2:, k] = beta, 0.0
            V[i:, i] = v
        reflectors.append((k0 + 1, V, tau))
    return A, reflectors


def _wy_factor(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Upper triangular T with H_1 ... H_nb = I - V T V^H for the reflectors
    H_i = I - tau_i v_i v_i^H of the columns of V, as LAPACK's zlarft (dlarft
    for real V)."""
    G = V.conj().T @ V
    T = np.zeros((len(tau), len(tau)), dtype=G.dtype)
    for i, t in enumerate(tau):
        T[:i, i] = -t * (T[:i, :i] @ G[:i, i])
        T[i, i] = t
    return T


def _band(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sweep operands of an upper Hessenberg matrix A (N x N).

    The upper bandwidth b is read from the exact zeros of A (A[i, j] == 0
    for j - i > b).  Returns ``band``, N x (b+1) with band[k, t] =
    -A[k - b + t, k] (zero above row 0), and the subdiagonal h, N-1 long
    with h[k - 1] the entry (k, k-1) of z - A, the same for every z.
    Index-major, so every update of the sweep is one contiguous block of
    rows.
    """
    N = len(A)
    i, j = np.nonzero(A)
    b = int((j - i).max(initial=0))
    rows = np.arange(N)[:, None] + np.arange(-b, 1)
    band = np.where(rows >= 0, -A[np.maximum(rows, 0), np.arange(N)[:, None]], 0)
    return band, -np.diagonal(A, offset=-1)


def _fourier_data(pot: FourierPotential | SinePotential) -> FourierPotential:
    if isinstance(pot, SinePotential):
        raise BcMismatch("periodic families need exponential coefficients")
    return pot


def _sine_data(pot: FourierPotential | SinePotential, max_sine: int) -> SinePotential:
    """Sine data of the antiderivative Q of v - v0 through ``max_sine``."""
    return pot if isinstance(pot, SinePotential) else per_to_dir(pot, max_sine)


def _real(a: np.ndarray) -> np.ndarray:
    """a, or its real part when a is complex with all imaginary parts zero."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def coupling(pot: FourierPotential | SinePotential, bc: BoundaryCondition, k, m) -> np.ndarray:
    """W(k, m), the matrix element of v - v0 between the basis functions of
    indices m and k (module docstring), for index arrays k, m (broadcast).
    W is real when the coefficient table it reads is."""
    k, m = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(m, dtype=np.int64))
    if bc.is_periodic_family:
        off = k - m
        D = int(np.abs(off).max(initial=0))
        return _real(_fourier_data(pot).v_table(D))[off + D]
    diff, summ = np.abs(k - m), k + m
    tab = _real(_sine_data(pot, int(summ.max())).qt_table(int(summ.max())))
    # times 1/sqrt(2), as numpy divides a complex table: a real table gives the
    # real parts of the complex one bit for bit
    return (diff * tab[diff] - summ * tab[summ]) * (1 / math.sqrt(2.0))


def majorant_for(pot: FourierPotential | SinePotential, bc: BoundaryCondition,
                 max_index: int) -> MajorantSeq:
    """The majorant of the coefficients the coupling of ``bc`` reads:
    ``majorant`` of w for Per+-, ``majorant_dir`` of the sine data of Q
    (converted through ``max_index``) for Dirichlet."""
    if bc.is_periodic_family:
        return majorant(_fourier_data(pot))
    return majorant_dir(_sine_data(pot, max_index))


def _toeplitz(t: np.ndarray) -> np.ndarray:
    """The N x N view T[i, j] = t[i - j + N - 1] of t (2N - 1 long): row i is
    the window of t[::-1] at N - 1 - i."""
    return np.lib.stride_tricks.sliding_window_view(t[::-1], (len(t) + 1) // 2)[::-1]


COVERAGE_FLOOR = 0.999  # least share of the read couplings that must be known


def assemble(bc: BoundaryCondition,
             pot: FourierPotential | SinePotential,
             half_width: int) -> HillMatrix:
    """Assemble the truncated matrix of L_bc for the given potential.

    The coupling is ``coupling``'s: a FourierPotential handed to Dirichlet
    is converted to sine data; a SinePotential cannot back a periodic
    family matrix.  Couplings beyond the potential truncation are zero and
    lower the reported coverage ratio (the share of the coefficients read,
    with repeats, that are known); below ``COVERAGE_FLOOR`` the assembly
    is refused.  L is real unless W or v0 is complex.

    The per+- coupling V(k - m) is Toeplitz on the basis: it is read on
    the 2N - 1 index offsets q = i - j, each known one counted N - |q|
    times, and L is one copy of a strided view of them.  The Dirichlet
    coupling is Toeplitz minus Hankel, W = (T - H) / sqrt(2): T is read on
    the 2N - 1 differences k - m, H on the 2N - 1 sums k + m, each counted
    as often as it occurs, and L is their difference of strided views.  So
    assembly holds no N x N array but L.
    """
    if half_width < 8:
        raise ValueError("half_width must be >= 8")
    basis = basis_for(bc, half_width)
    idx = np.array(basis.indices)
    N = len(idx)
    v0 = complex(pot.v0)
    v0 = v0 if v0.imag else v0.real
    if bc.is_periodic_family:
        q = np.arange(1 - N, N)  # the offsets i - j
        off = idx[np.maximum(q, 0)] - idx[np.maximum(-q, 0)]  # k - m at i - j
        t = coupling(pot, bc, off, 0)
        coverage = int((N - np.abs(q[q != 0]))[pot.covers(off[q != 0])].sum()) / (N * N - N)
        t = t.astype(np.result_type(t, v0))  # a complex v0 makes a real W complex
        t[N - 1] += v0
        L = _toeplitz(t).copy()
    else:
        q, summ = np.arange(1 - N, N), np.arange(2, 2 * N + 1)  # k - m at i - j, k + m at i + j
        diff = np.abs(q)
        sp = _sine_data(pot, 2 * N)
        tab = _real(sp.qt_table(2 * N))
        reads = np.concatenate([(N - diff)[q != 0], N - np.abs(summ - N - 1)])
        coverage = int(reads[sp.covers(np.concatenate([diff[q != 0], summ]))].sum()) / (2 * N * N - N)
        hankel = np.lib.stride_tricks.sliding_window_view(summ * tab[summ], N)
        L = np.subtract(_toeplitz(diff * tab[diff]), hankel)
        L *= 1 / math.sqrt(2.0)  # as ``coupling``: W's entries bit for bit
        L = _real(L)
        L = np.ascontiguousarray(L, dtype=np.result_type(L, v0))
        L[np.diag_indices_from(L)] += v0
    if coverage < COVERAGE_FLOOR:
        raise InsufficientCoefficients(
            f"coverage {coverage:.4f} below floor {COVERAGE_FLOOR}; "
            "store more coefficients or shrink the basis")
    L[np.diag_indices_from(L)] += idx * idx
    H = HillMatrix.__new__(HillMatrix)
    H._keep(basis, L, coverage)
    return H
