"""Truncated Fourier-basis matrices of Hill operators.

For each boundary condition the operator -y'' + v(x) y acts on an index
lattice of exponentials (periodic: 2Z, antiperiodic: 1+2Z) or sines
(Dirichlet: N).  The truncated matrix is

    L[k, m] = k^2 delta_km + v0 delta_km + W(k, m).

This module alone turns a stored potential into the coupling W
(``coupling``) and into the majorant of it that the bounds read
(``majorant_for``).  For Per+- the coupling is V(k - m) = (k - m) w(k - m),
the Fourier coefficients of v - v0.  For Dirichlet it is

    W(k, m) = (|k-m| qt(|k-m|) - (k+m) qt(k+m)) / sqrt(2),

with qt the sine coefficients of the antiderivative Q of v - v0.  Since
Q' = sum V(m) e^{imx}, a FourierPotential carries Q = -i sum w(m) e^{imx};
its sine data are those of ``per_to_dir`` (which expands the literal
series sum w(m) e^{imx}) times -i, so the same potential denotes the same
v under every boundary condition.  Note the Dirichlet coupling has a
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
    """Dense truncated matrix L = diag(diag0) + V of L_bc, with its free
    diagonal part diag0 (V holds v0 and the coupling).

    Immutable after assembly: ``L`` and a copy of ``diag0`` are kept,
    marked read-only.  Derived data is computed lazily and cached, since
    several consumers share it: the eigenvalues (localization counts,
    contour guards), the full eigendecomposition (the dense-eigendecomposition
    projector) and the unitary Hessenberg form L = U A U^H (every contour
    quadrature, which solves its shifted systems on A).  ``hermitian``
    records whether L == L^H bit for bit, as for every real potential
    (v0 real, w(-m) == -conj(w(m))) under every boundary condition; then
    the Hessenberg form is tridiagonal and the eigenvalues come from
    ``np.linalg.eigvalsh``.  Eigenvalues alone skip the eigenvectors
    unless ``eig()`` has already computed them; they never come from the
    Hessenberg form, so the guards stay independent of the quadrature.

    Every matrix must satisfy the transpose symmetry of its lattice,
    L^T = L[p][:, p] for p = ``basis.transpose_perm()``, bit for bit
    (else ``ValueError``): the contour quadrature takes the moments of
    (z - L)^-T from those of (z - L)^-1 by it.  ``assemble`` meets it for
    every potential, complex ones included.
    """

    def __init__(self, basis: BasisSpec, diag0: np.ndarray, V: np.ndarray,
                 coverage: float = 1.0):
        self.basis = basis
        self.diag0 = np.array(diag0, dtype=float)  # copies: the caller's arrays stay writable
        self.L = np.diag(self.diag0) + np.asarray(V, dtype=complex)
        self.coverage = float(coverage)
        for a in (self.diag0, self.L):
            a.setflags(write=False)
        p = basis.transpose_perm()
        if not np.array_equal(self.L.T, self.L[np.ix_(p, p)]):
            raise ValueError(f"L^T != L[p][:, p] for the {basis.bc.value} lattice symmetry p")
        self.hermitian = bool(np.array_equal(self.L, self.L.conj().T))
        self._eig = None
        self._vals = None
        self._hess = None

    @property
    def size(self) -> int:
        return self.basis.size

    def eig(self):
        """Cached (eigenvalues, right eigenvectors, inverse eigenvector matrix)."""
        if self._eig is None:
            vals, vecs = np.linalg.eig(self.L)
            self._eig = (vals, vecs, np.linalg.inv(vecs))
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Cached complex eigenvalues; taken from ``eig()`` if that already ran.

        Otherwise ``eigvals``, or for Hermitian L ``eigvalsh``: ascending,
        with exactly zero imaginary parts.
        """
        if self._eig is not None:
            return self._eig[0]
        if self._vals is None:
            self._vals = (np.linalg.eigvalsh(self.L).astype(complex) if self.hermitian
                          else np.linalg.eigvals(self.L))
        return self._vals

    def hessenberg(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (A, U) with L = U A U^H, A upper Hessenberg and U unitary.

        Householder reflections I - v v^H (|v|^2 = 2) zero column k below
        its subdiagonal; a column that is already zero there (every
        column of a diagonal L) is skipped.  The entries of A below the
        subdiagonal are set to exact zeros, and for Hermitian L so are
        those above the superdiagonal, which leaves A tridiagonal.  Both
        truncations drop entries of size O(eps ||L||).
        """
        if self._hess is None:
            A = self.L.copy()
            U = np.eye(self.size, dtype=complex)
            for k in range(self.size - 2):
                x = A[k + 1:, k]
                if not x[1:].any():
                    continue
                v = x.copy()
                v[0] += np.exp(1j * np.angle(x[0])) * np.linalg.norm(x)
                v *= math.sqrt(2.0) / np.linalg.norm(v)
                A[k + 1:, k:] -= np.outer(v, v.conj() @ A[k + 1:, k:])
                A[:, k + 1:] -= np.outer(A[:, k + 1:] @ v, v.conj())
                U[:, k + 1:] -= np.outer(U[:, k + 1:] @ v, v.conj())
                A[k + 2:, k] = 0.0
            if self.hermitian:
                A[np.triu_indices(self.size, 2)] = 0.0
            for a in (A, U):
                a.setflags(write=False)
            self._hess = (A, U)
        return self._hess


def _fourier_data(pot: FourierPotential | SinePotential) -> FourierPotential:
    if isinstance(pot, SinePotential):
        raise BcMismatch("periodic families need exponential coefficients")
    return pot


def _sine_data(pot: FourierPotential | SinePotential, max_sine: int) -> SinePotential:
    """Sine data of the antiderivative Q of v - v0 through ``max_sine``: a
    FourierPotential, Q = -i sum w(m) e^{imx}, gets -i times its ``per_to_dir``."""
    if isinstance(pot, SinePotential):
        return pot
    sp = per_to_dir(pot, max_sine)
    return SinePotential(sp.v0, dict(zip(sp.qt.idx.tolist(), -1j * sp.qt.val)),
                         sp.max_index, complete=sp.complete)


def _coupling(pot, bc: BoundaryCondition, k, m) -> tuple[np.ndarray, np.ndarray]:
    """W(k, m) over the broadcast index arrays k and m, and for each
    coefficient it reads (with repeats) whether that one is known."""
    k, m = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(m, dtype=np.int64))
    if bc.is_periodic_family:
        pot, off = _fourier_data(pot), k - m
        D = int(np.abs(off).max(initial=0))
        return pot.v_table(D)[off + D], pot.covers(np.abs(off[off != 0]))
    diff, summ = np.abs(k - m), k + m
    sp = _sine_data(pot, int(summ.max()))
    tab = sp.qt_table(int(summ.max()))
    W = (diff * tab[diff] - summ * tab[summ]) / math.sqrt(2.0)
    return W, sp.covers(np.concatenate([diff[diff != 0], summ.ravel()]))


def coupling(pot: FourierPotential | SinePotential, bc: BoundaryCondition, k, m) -> np.ndarray:
    """W(k, m), the matrix element of v - v0 between the basis functions of
    indices m and k (module docstring), for index arrays k, m (broadcast)."""
    return _coupling(pot, bc, k, m)[0]


def majorant_for(pot: FourierPotential | SinePotential, bc: BoundaryCondition,
                 max_index: int) -> MajorantSeq:
    """The majorant of the coefficients the coupling of ``bc`` reads:
    ``majorant`` of w for Per+-, ``majorant_dir`` of the sine data of Q
    (converted through ``max_index``) for Dirichlet."""
    if bc.is_periodic_family:
        return majorant(_fourier_data(pot))
    return majorant_dir(_sine_data(pot, max_index))


def assemble(bc: BoundaryCondition,
             pot: FourierPotential | SinePotential,
             half_width: int,
             coverage_floor: float = 0.999) -> HillMatrix:
    """Assemble the truncated matrix of L_bc for the given potential.

    The coupling is ``coupling``'s: a FourierPotential handed to Dirichlet
    is converted to sine data; a SinePotential cannot back a periodic
    family matrix.  Couplings beyond the potential truncation are zero and
    lower the reported coverage ratio (the share of the coefficients read,
    with repeats, that are known); below ``coverage_floor`` the assembly
    is refused.
    """
    if half_width < 8:
        raise ValueError("half_width must be >= 8")
    basis = basis_for(bc, half_width)
    idx = np.array(basis.indices)
    W, known = _coupling(pot, bc, idx[:, None], idx[None, :])
    coverage = float(np.mean(known))
    if coverage < coverage_floor:
        raise InsufficientCoefficients(
            f"coverage {coverage:.4f} below floor {coverage_floor}; "
            "store more coefficients or shrink the basis")
    diag0 = np.array([float(k * k) for k in basis.indices])
    return HillMatrix(basis, diag0, W + complex(pot.v0) * np.eye(basis.size), coverage=coverage)
