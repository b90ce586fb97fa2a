"""Fourier-side representations of pi-periodic potentials.

A potential is stored through the coefficient sequence of its zero-mean
antiderivative: v = v0 + Q' with

    Q(x) = sum_{m even, m != 0} w(m) exp(i m x),

and the derived sequence V(m) = m * w(m) is what enters every operator
matrix and every bound downstream.  Coefficients may be complex; nothing
here assumes the potential is real.  The assembled operator is
self-adjoint (at truncation) exactly when v0 is real and
V(-m) == conj(V(m)), i.e. w(-m) == -conj(w(m)).

For Dirichlet boundary conditions the same object Q is carried by its
sine coefficients,

    Q(x) = sum_{m >= 1} qt(m) * sqrt(2) sin(m x),

and ``per_to_dir`` converts between the two representations in closed
form.  The sine system only captures Q exactly (with finitely many
terms) when Q has no cosine component, i.e. w(-m) == -w(m); otherwise
the odd-index sine coefficients decay like 1/m and the conversion is a
genuine infinite series, truncated at ``max_sine``.

All ell^2 statements (norms, tail energies) are evaluated over the
stored truncation range.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "DuplicateIndex",
    "OddIndex",
    "ZeroIndex",
    "FourierPotential",
    "SinePotential",
    "MajorantSeq",
    "from_coeffs",
    "zero",
    "mathieu",
    "delta_comb",
    "sawtooth",
    "majorant",
    "majorant_dir",
    "per_to_dir",
    "q_grid",
    "q_grid_sine",
    "from_config",
    "parse_potential_arg",
]


class DuplicateIndex(ValueError):
    """A coefficient index appears more than once."""


class OddIndex(ValueError):
    """An exponential coefficient index is odd (the lattice is 2Z)."""


class ZeroIndex(ValueError):
    """Index 0 is reserved: the antiderivative Q has zero mean."""


@dataclass(frozen=True)
class FourierPotential:
    """Exponential-side data of v = v0 + Q'.

    ``complete`` marks potentials whose support is exactly known (all
    unstored coefficients are true zeros) as opposed to truncations of
    an infinite sequence.
    """

    v0: complex
    w: Mapping[int, complex]
    max_index: int
    complete: bool = False

    def __post_init__(self):
        for m, c in self.w.items():
            if m == 0:
                raise ZeroIndex("w(0) is fixed to 0 by the zero-mean normalisation")
            if m % 2 != 0:
                raise OddIndex(f"index {m} is odd; the exponential lattice is 2Z")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at index {m}")

    def wc(self, m: int) -> complex:
        """Stored coefficient w(m), zero if absent."""
        return complex(self.w.get(m, 0.0))

    def V(self, m: int) -> complex:
        """Interaction coefficient V(m) = m * w(m); V(0) = 0."""
        return m * self.wc(m)

    @property
    def l2_w(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.w.values()))

    @property
    def hermitian_w(self) -> bool:
        """w(-m) == conj(w(m)), i.e. Q is real-valued."""
        return all(
            cmath.isclose(self.wc(-m), self.wc(m).conjugate(), abs_tol=1e-15)
            for m in self.w
        )

    @property
    def selfadjoint(self) -> bool:
        """V(-m) == conj(V(m)) and v0 real: the assembled matrix is Hermitian."""
        if abs(complex(self.v0).imag) > 1e-15:
            return False
        return all(
            cmath.isclose(self.V(-m), self.V(m).conjugate(), abs_tol=1e-15)
            for m in self.w
        )

    def covers(self, m: int) -> bool:
        """Whether index m is inside the known range (stored or true zero)."""
        return self.complete or abs(m) <= self.max_index

    def v_table(self, max_offset: int) -> np.ndarray:
        """V(d) for d in [-max_offset, max_offset], indexed d + max_offset."""
        tab = np.zeros(2 * max_offset + 1, dtype=complex)
        for m, c in self.w.items():
            if abs(m) <= max_offset:
                tab[m + max_offset] = m * c
        return tab

    def vabs_table(self, max_offset: int) -> np.ndarray:
        return np.abs(self.v_table(max_offset))


@dataclass(frozen=True)
class SinePotential:
    """Sine-side data: Q(x) = sum_{m>=1} qt(m) sqrt(2) sin(m x), plus v0."""

    v0: complex
    qt: Mapping[int, complex]
    max_index: int
    complete: bool = False

    def __post_init__(self):
        for m, c in self.qt.items():
            if m < 1:
                raise ValueError("sine indices start at 1; qt(0) is fixed to 0")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at index {m}")

    def qc(self, m: int) -> complex:
        """qt(m) with qt(0) = 0 and zero outside the stored range."""
        if m <= 0:
            return 0.0
        return complex(self.qt.get(m, 0.0))

    @property
    def l2_qt(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.qt.values()))

    def covers(self, m: int) -> bool:
        return self.complete or m <= self.max_index

    def qt_table(self, max_index: int) -> np.ndarray:
        """qt(m) for 0 <= m <= max_index as a dense vector."""
        tab = np.zeros(max_index + 1, dtype=complex)
        for m, c in self.qt.items():
            if m <= max_index:
                tab[m] = c
        return tab


@dataclass(frozen=True)
class MajorantSeq:
    """Nonnegative symmetric majorant r(m) = r(|m|) with r(0) = 0.

    ``step`` is the lattice spacing the sequence lives on: 2 for the
    exponential (periodic/antiperiodic) lattice, 1 for the sine lattice.
    The norm is the ell^2 norm over the full symmetric lattice,
    ``norm^2 = r(0)^2 + 2 sum_{m>0} r(m)^2``.
    """

    r: Mapping[int, float]
    step: int
    norm: float = field(init=False)

    def __post_init__(self):
        for m, v in self.r.items():
            if m < 0:
                raise ValueError("majorant entries are stored for m >= 0 only")
            if v < 0 or not math.isfinite(v):
                raise ValueError(f"majorant value at {m} must be finite and >= 0")
        if self.r.get(0, 0.0) != 0.0:
            raise ValueError("r(0) must be 0")
        sq = sum(v * v for m, v in self.r.items() if m > 0)
        object.__setattr__(self, "norm", math.sqrt(2.0 * sq))

    def get(self, m: int) -> float:
        return float(self.r.get(abs(int(m)), 0.0))

    @property
    def max_index(self) -> int:
        nz = [m for m, v in self.r.items() if v > 0]
        return max(nz) if nz else 0

    def tail_energy(self, threshold: float) -> float:
        """(sum_{|i| >= threshold} r(i)^2)^(1/2) over stored indices."""
        if threshold <= 0:
            return self.norm
        sq = sum(v * v for m, v in self.r.items() if m >= threshold)
        return math.sqrt(2.0 * sq)

    def table(self, max_abs: int) -> np.ndarray:
        """r(|j|) for 0 <= |j| <= max_abs as a dense vector (index |j|)."""
        tab = np.zeros(max_abs + 1)
        for m, v in self.r.items():
            if m <= max_abs:
                tab[m] = v
        return tab


def from_coeffs(v0: complex, entries: Iterable[tuple[int, complex]],
                max_index: int | None = None, complete: bool = True) -> FourierPotential:
    """Build a potential from explicit (even index, coefficient) pairs."""
    w: dict[int, complex] = {}
    for m, c in entries:
        m = int(m)
        if m == 0:
            raise ZeroIndex("index 0 is not allowed")
        if m % 2 != 0:
            raise OddIndex(f"index {m} is odd")
        if m in w:
            raise DuplicateIndex(f"index {m} given twice")
        w[m] = complex(c)
    if max_index is None:
        max_index = max((abs(m) for m in w), default=0)
    return FourierPotential(complex(v0), w, max_index, complete=complete)


def zero() -> FourierPotential:
    return FourierPotential(0.0, {}, 0, complete=True)


def mathieu(coupling: float = 1.0) -> FourierPotential:
    """v = 2*coupling*cos(2x): V(+-2) = coupling, all other V zero."""
    c = complex(coupling)
    return FourierPotential(0.0, {2: c / 2, -2: -c / 2}, 2, complete=True)


def delta_comb(mass: float = 1.0, max_index: int = 512) -> FourierPotential:
    """Periodic delta of the given mass at x = 0 (mod pi).

    Pairing against the exponential basis gives the constant interaction
    V(m) = mass/pi on every even m != 0, hence w(m) = mass/(pi*m), and the
    mean v0 = mass/pi.  The sequence is truncated at ``max_index``.
    """
    if not math.isfinite(mass):
        raise ValueError("mass must be finite")
    if mass == 0.0:
        return zero()
    w = {m: mass / (math.pi * m) for m in range(-max_index, max_index + 1)
         if m != 0 and m % 2 == 0}
    return FourierPotential(mass / math.pi, w, max_index, complete=False)


def sawtooth(amplitude: float = 1.0, max_index: int = 512) -> FourierPotential:
    """v(x) = amplitude * (pi - 2x) / (2 pi) on (0, pi), extended pi-periodically.

    The true Fourier coefficients are v(m) = -i*amplitude/(pi*m) for even
    m != 0, so w(m) = -i*amplitude/(pi*m^2).  An L^2 potential (no v0):
    the majorant decays like 1/m^2.
    """
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if amplitude == 0.0:
        return zero()
    w = {m: -1j * amplitude / (math.pi * m * m)
         for m in range(-max_index, max_index + 1) if m != 0 and m % 2 == 0}
    return FourierPotential(0.0, w, max_index, complete=False)


def majorant(p: FourierPotential) -> MajorantSeq:
    """r(m) = max(|w(m)|, |w(-m)|) on the even lattice."""
    r: dict[int, float] = {}
    for m in p.w:
        a = abs(m)
        r[a] = max(abs(p.wc(a)), abs(p.wc(-a)))
    r.pop(0, None)
    return MajorantSeq(r, step=2)


def majorant_dir(sp: SinePotential) -> MajorantSeq:
    """r(m) = |qt(|m|)| on the integer lattice."""
    r = {m: abs(c) for m, c in sp.qt.items() if abs(c) > 0}
    return MajorantSeq(r, step=1)


def per_to_dir(p: FourierPotential, max_sine: int) -> SinePotential:
    """Sine coefficients of Q(x) = sum w(m) exp(imx) on [0, pi].

    Closed form of qt(m) = (sqrt(2)/pi) * integral_0^pi Q(x) sin(mx) dx:

    * even m: only the resonant terms k = +-m contribute,
      qt(m) = i*(w(m) - w(-m))/sqrt(2);
    * odd m: every k contributes through the elementary integral
      int_0^pi e^{ikx} sin(mx) dx = 2m/(m^2-k^2),
      qt(m) = (2*sqrt(2)*m/pi) * sum_k w(k)/(m^2-k^2).
    """
    if max_sine < 1:
        raise ValueError("max_sine must be >= 1")
    ks = np.array(sorted(p.w.keys()), dtype=float)
    ws = np.array([p.w[int(k)] for k in ks], dtype=complex)
    qt: dict[int, complex] = {}
    for m in range(1, max_sine + 1):
        if m % 2 == 0:
            val = 1j * (p.wc(m) - p.wc(-m)) / math.sqrt(2.0)
        else:
            if len(ks) == 0:
                val = 0.0
            else:
                val = (2.0 * math.sqrt(2.0) * m / math.pi) * np.sum(ws / (m * m - ks * ks))
        if val != 0:
            qt[m] = complex(val)
    # The sine expansion terminates exactly only when Q has no cosine part.
    pure_sine = all(abs(p.wc(m) + p.wc(-m)) <= 1e-15 for m in p.w)
    return SinePotential(p.v0, qt, max_sine, complete=p.complete and pure_sine)


def q_grid(p: FourierPotential, xs: np.ndarray) -> np.ndarray:
    """Q(x) sampled from the exponential coefficients."""
    vals = np.zeros_like(xs, dtype=complex)
    for m, c in p.w.items():
        vals += c * np.exp(1j * m * xs)
    return vals


def q_grid_sine(sp: SinePotential, xs: np.ndarray) -> np.ndarray:
    """Q(x) sampled from the sine coefficients."""
    vals = np.zeros_like(xs, dtype=complex)
    for m, c in sp.qt.items():
        vals += c * math.sqrt(2.0) * np.sin(m * xs)
    return vals


# ---------------------------------------------------------------------------
# Gallery configuration
#
# Schema (JSON object):
#   {"kind": "zero"}
#   {"kind": "mathieu",    "coupling": 1.0}
#   {"kind": "delta_comb", "mass": 0.5,      "truncation": 512}
#   {"kind": "sawtooth",   "amplitude": 1.0, "truncation": 512}
#   {"kind": "custom",     "v0": [re, im],
#    "entries": [[index, re, im], ...]}
# "truncation" bounds |m| of the stored coefficients for the infinite kinds.
# ---------------------------------------------------------------------------

def from_config(cfg: Mapping, default_truncation: int = 512) -> FourierPotential:
    """Build a gallery potential from a configuration mapping."""
    if "kind" not in cfg:
        raise ValueError("potential config needs a 'kind' key")
    kind = cfg["kind"]
    trunc = int(cfg.get("truncation", default_truncation))
    if kind == "zero":
        return zero()
    if kind == "mathieu":
        return mathieu(float(cfg.get("coupling", 1.0)))
    if kind == "delta_comb":
        return delta_comb(float(cfg.get("mass", 1.0)), max_index=trunc)
    if kind == "sawtooth":
        return sawtooth(float(cfg.get("amplitude", 1.0)), max_index=trunc)
    if kind == "custom":
        v0 = cfg.get("v0", 0.0)
        if isinstance(v0, (list, tuple)):
            v0 = complex(v0[0], v0[1])
        entries = [(int(e[0]), complex(e[1], e[2] if len(e) > 2 else 0.0))
                   for e in cfg.get("entries", [])]
        return from_coeffs(v0, entries)
    raise ValueError(f"unknown potential kind {kind!r}")


def parse_potential_arg(arg: str, default_truncation: int = 512) -> FourierPotential:
    """Parse a CLI shorthand such as 'mathieu:1.0' or 'file:gallery.json'."""
    if ":" in arg:
        kind, _, param = arg.partition(":")
    else:
        kind, param = arg, ""
    kind = kind.strip().lower()
    if kind == "file":
        with open(param) as fh:
            return from_config(json.load(fh), default_truncation)
    if kind == "zero":
        return zero()
    if kind == "mathieu":
        return mathieu(float(param) if param else 1.0)
    if kind == "delta_comb":
        return delta_comb(float(param) if param else 1.0, max_index=default_truncation)
    if kind == "sawtooth":
        return sawtooth(float(param) if param else 1.0, max_index=default_truncation)
    raise ValueError(f"cannot parse potential argument {arg!r}")
