"""Truncated Fourier-basis matrices of Hill operators.

For each boundary condition the operator -y'' + v(x) y acts on an index
lattice of exponentials (periodic: 2Z, antiperiodic: 1+2Z) or sines
(Dirichlet: N).  The truncated matrix is

    L[k, m] = k^2 delta_km + v0 delta_km + coupling(k, m),

where the coupling is V(k - m) = (k - m) w(k - m) for Per+- and
(|k-m| qt(|k-m|) - (k+m) qt(k+m)) / sqrt(2) for Dirichlet.  Note the
Dirichlet coupling has a nonzero diagonal of its own (-2k qt(2k)/sqrt(2))
on top of v0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .potential import FourierPotential, SinePotential, per_to_dir

__all__ = [
    "BcMismatch",
    "InsufficientCoefficients",
    "BoundaryCondition",
    "BasisSpec",
    "HillMatrix",
    "basis_for",
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

    @property
    def parity(self) -> int:
        """Residue of valid level indices n mod 2 (Dirichlet accepts both)."""
        if self is BoundaryCondition.PER_PLUS:
            return 0
        if self is BoundaryCondition.PER_MINUS:
            return 1
        return -1

    def level_ok(self, n: int) -> bool:
        if n < 1:
            return False
        return self.parity in (-1, n % 2)


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
        if self.bc.is_periodic_family:
            return n in self.indices and -n in self.indices
        return n in self.indices

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
    """Dense truncated matrix of L_bc, with its free diagonal part.

    Immutable after assembly (arrays are marked read-only).  Derived data
    is computed lazily and cached, since several consumers share it:
    the eigenvalues (localization counts, contour guards), the full
    eigendecomposition (the dense-eigendecomposition projector) and the
    unitary Hessenberg form L = U A U^H (every contour quadrature, which
    solves its shifted systems on A).  ``hermitian`` records whether
    L == L^H bit for bit, as for every real potential under per+-; then
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

    def __init__(self, basis: BasisSpec, diag0: np.ndarray, Vmat: np.ndarray,
                 coverage: float = 1.0):
        self.basis = basis
        self.diag0 = np.asarray(diag0, dtype=float)
        self.Vmat = np.asarray(Vmat, dtype=complex)
        self.L = np.diag(self.diag0).astype(complex) + self.Vmat
        self.coverage = float(coverage)
        for a in (self.diag0, self.Vmat, self.L):
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


def _per_vmat(pot: FourierPotential, basis: BasisSpec) -> tuple[np.ndarray, float]:
    idx = np.array(basis.indices)
    off = idx[:, None] - idx[None, :]
    D = int(np.abs(off).max())
    tab = pot.v_table(D)
    V = tab[off + D]
    V = V + complex(pot.v0) * np.eye(len(idx))
    # coverage: the share of the needed coupling indices, with repeats, that are known
    return V, float(np.mean(pot.covers(np.abs(off[off != 0]))))


def _dir_vmat(sp: SinePotential, basis: BasisSpec) -> tuple[np.ndarray, float]:
    idx = np.array(basis.indices)
    diff = np.abs(idx[:, None] - idx[None, :])
    summ = idx[:, None] + idx[None, :]
    tab = sp.qt_table(int(summ.max()))
    V = (diff * tab[diff] - summ * tab[summ]) / math.sqrt(2.0)
    V = V + complex(sp.v0) * np.eye(len(idx))
    return V, float(np.mean(sp.covers(np.concatenate([diff[diff != 0], summ.ravel()]))))


def assemble(bc: BoundaryCondition,
             pot: FourierPotential | SinePotential,
             half_width: int,
             coverage_floor: float = 0.999) -> HillMatrix:
    """Assemble the truncated matrix of L_bc for the given potential.

    A FourierPotential handed to Dirichlet is converted through
    ``per_to_dir`` automatically; a SinePotential cannot back a periodic
    family matrix.  Couplings beyond the potential truncation are zero
    and lower the reported coverage ratio; below ``coverage_floor`` the
    assembly is refused.
    """
    if half_width < 8:
        raise ValueError("half_width must be >= 8")
    basis = basis_for(bc, half_width)
    if bc.is_periodic_family:
        if isinstance(pot, SinePotential):
            raise BcMismatch("periodic families need exponential coefficients")
        V, coverage = _per_vmat(pot, basis)
    else:
        if isinstance(pot, FourierPotential):
            pot = per_to_dir(pot, max_sine=2 * half_width)
        V, coverage = _dir_vmat(pot, basis)
    if coverage < coverage_floor:
        raise InsufficientCoefficients(
            f"coverage {coverage:.4f} below floor {coverage_floor}; "
            "store more coefficients or shrink the basis")
    diag0 = np.array([float(k * k) for k in basis.indices])
    return HillMatrix(basis, diag0, V, coverage=coverage)
