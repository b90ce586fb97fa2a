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

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
    "free_matrix",
    "dump_matrix",
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

    Immutable after assembly (arrays are marked read-only); eigen data is
    computed lazily and cached since several consumers (localization
    counts, contour guards, the dense-eigendecomposition projector) share
    it.  Eigenvalues alone skip the eigenvectors unless ``eig()`` has
    already computed them.
    """

    def __init__(self, basis: BasisSpec, diag0: np.ndarray, Vmat: np.ndarray,
                 coverage: float = 1.0, label: str = ""):
        self.basis = basis
        self.diag0 = np.asarray(diag0, dtype=float)
        self.Vmat = np.asarray(Vmat, dtype=complex)
        self.L = np.diag(self.diag0).astype(complex) + self.Vmat
        self.coverage = float(coverage)
        self.label = label
        for a in (self.diag0, self.Vmat, self.L):
            a.setflags(write=False)
        self._eig = None
        self._vals = None

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
        """Cached eigenvalues; taken from ``eig()`` if that already ran."""
        if self._eig is not None:
            return self._eig[0]
        if self._vals is None:
            self._vals = np.linalg.eigvals(self.L)
        return self._vals


def _per_vmat(pot: FourierPotential, basis: BasisSpec) -> tuple[np.ndarray, float]:
    idx = np.array(basis.indices)
    off = idx[:, None] - idx[None, :]
    D = int(np.abs(off).max())
    tab = pot.v_table(D)
    V = tab[off + D]
    V = V + complex(pot.v0) * np.eye(len(idx))
    needed = np.abs(off[off != 0])
    covered = np.array([pot.covers(int(d)) for d in np.unique(needed)])
    counts = np.array([(needed == d).sum() for d in np.unique(needed)])
    coverage = float((counts * covered).sum() / counts.sum()) if counts.sum() else 1.0
    return V, coverage


def _dir_vmat(sp: SinePotential, basis: BasisSpec) -> tuple[np.ndarray, float]:
    idx = np.array(basis.indices)
    diff = np.abs(idx[:, None] - idx[None, :])
    summ = idx[:, None] + idx[None, :]
    tab = sp.qt_table(int(summ.max()))
    V = (diff * tab[diff] - summ * tab[summ]) / math.sqrt(2.0)
    V = V + complex(sp.v0) * np.eye(len(idx))
    needed = np.concatenate([diff[diff != 0].ravel(), summ.ravel()])
    uniq = np.unique(needed)
    covered = np.array([sp.covers(int(d)) for d in uniq])
    counts = np.array([(needed == d).sum() for d in uniq])
    coverage = float((counts * covered).sum() / counts.sum()) if counts.sum() else 1.0
    return V, coverage


def assemble(bc: BoundaryCondition,
             pot: FourierPotential | SinePotential,
             half_width: int,
             coverage_floor: float = 0.999,
             label: str = "") -> HillMatrix:
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
    return HillMatrix(basis, diag0, V, coverage=coverage, label=label)


def free_matrix(basis: BasisSpec) -> HillMatrix:
    """Matrix of the free operator: diag(k^2), no coupling."""
    diag0 = np.array([float(k * k) for k in basis.indices])
    return HillMatrix(basis, diag0, np.zeros((basis.size, basis.size), dtype=complex),
                      label="free")


def dump_matrix(H: HillMatrix, path: str | Path, fmt: str = "csv") -> Path:
    """Debug dump of the assembled matrix.

    csv: first row is the basis index header, then one row per basis
    index, entries rendered as 're+imj' strings, row-major.
    npz: arrays 'indices', 'L', 'diag0', 'Vmat'.
    """
    path = Path(path)
    if fmt == "npz":
        np.savez(path, indices=np.array(H.basis.indices),
                 L=H.L, diag0=H.diag0, Vmat=H.Vmat)
        return path
    if fmt != "csv":
        raise ValueError("fmt must be 'csv' or 'npz'")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [str(k) for k in H.basis.indices])
        for k, row in zip(H.basis.indices, H.L):
            writer.writerow([str(k)] + [f"{z.real:.17g}{z.imag:+.17g}j" for z in row])
    return path
