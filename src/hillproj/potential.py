"""Fourier-side representations of pi-periodic potentials.

A potential v = v0 + sum_{m even, m != 0} V(m) exp(i m x) is stored
through v0 and the sequence w(m) = V(m) / m, so that V(m) = m * w(m) are
the Fourier coefficients of v - v0 that enter every operator matrix and
every bound downstream.  The zero-mean antiderivative of v - v0 is then

    Q(x) = -i sum_{m even, m != 0} w(m) exp(i m x).

Coefficients may be complex; nothing here assumes the potential is real.
v is real exactly when V(-m) == conj(V(m)), i.e. w(-m) == -conj(w(m)), and
even exactly when w(-m) == -w(m).

For Dirichlet boundary conditions the coupling reads sine coefficients,

    Q(x) = sum_{m >= 1} qt(m) * sqrt(2) sin(m x).

``per_to_dir`` expands the literal series sum w(m) exp(i m x) = i Q in
closed form and multiplies by -i, so it returns the sine data of Q
itself, the one conversion every Dirichlet consumer reads.  The sine
system only captures Q exactly (with finitely many terms) when Q has no
cosine component, i.e. w(-m) == -w(m);
otherwise the odd-index sine coefficients decay like 1/m and the
conversion is a genuine infinite series, truncated at ``max_sine``.

The constructors take each coefficient sequence (w, qt and the majorant
r) as a Mapping {m: value} and store it sparse, as sorted index and value
arrays, so a few far indices cost nothing; consumers read dense windows
of it.  All ell^2 statements (norms, tail energies) are evaluated over
the stored truncation range.
"""

from __future__ import annotations

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
    "from_config",
    "parse_potential_arg",
]


class DuplicateIndex(ValueError):
    """A coefficient index appears more than once."""


class OddIndex(ValueError):
    """An exponential coefficient index is odd (the lattice is 2Z)."""


class ZeroIndex(ValueError):
    """Index 0 is reserved: the antiderivative Q has zero mean."""


class _Coeffs:
    """A sparse coefficient sequence: sorted unique int64 indices and their values.

    Zero wherever no index is stored.  Read through ``get``, ``window``
    and ``sumsq``; both arrays are read-only.
    """

    __slots__ = ("idx", "val")

    def __init__(self, idx: np.ndarray, val: np.ndarray):
        self.idx, self.val = idx, val
        for a in (idx, val):
            a.setflags(write=False)

    @classmethod
    def of(cls, data, dtype) -> "_Coeffs":
        """Sort and check a Mapping {index: value}; a _Coeffs passes through."""
        if isinstance(data, cls):
            return data
        idx = np.fromiter(data.keys(), dtype=np.int64, count=len(data))
        val = np.fromiter(data.values(), dtype=dtype, count=len(data))
        bad = idx[~np.isfinite(val)]
        if len(bad):
            raise ValueError(f"non-finite coefficient at index {bad[0]}")
        order = np.argsort(idx)
        return cls(idx[order], val[order])

    def get(self, m):
        """The value at each index m (scalar or array), zero where none is stored."""
        m = np.asarray(m, dtype=np.int64)
        if not len(self.idx):
            return np.zeros(m.shape, self.val.dtype)[()]
        pos = np.minimum(np.searchsorted(self.idx, m), len(self.idx) - 1)
        return np.where(self.idx[pos] == m, self.val[pos], 0)[()]

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Dense values over the indices lo..hi, entry m - lo."""
        out = np.zeros(hi - lo + 1, dtype=self.val.dtype)
        a, b = np.searchsorted(self.idx, [lo, hi + 1])
        out[self.idx[a:b] - lo] = self.val[a:b]
        return out

    def sumsq(self, t: float = -math.inf) -> float:
        """sum |value|^2 over the stored indices >= t."""
        return float(np.sum(_abs(self.val[np.searchsorted(self.idx, t):]) ** 2))


def _abs(z: np.ndarray) -> np.ndarray:
    """|z| bit for bit as Python's abs() (libm hypot); numpy's complex abs is not."""
    return np.hypot(z.real, z.imag)


def _isclose(a: np.ndarray, b: np.ndarray) -> bool:
    """cmath.isclose(a, b, abs_tol=1e-15) (rel_tol 1e-9) at every entry."""
    tol = np.maximum(1e-9 * np.maximum(_abs(a), _abs(b)), 1e-15)
    return bool(np.all(_abs(b - a) <= tol))


@dataclass(frozen=True)
class FourierPotential:
    """Exponential-side data of v = v0 + Q', Q = -i sum w(m) exp(imx).

    ``complete`` marks potentials whose support is exactly known (all
    unstored coefficients are true zeros) as opposed to truncations of
    an infinite sequence.
    """

    v0: complex
    w: Mapping[int, complex] | _Coeffs
    max_index: int
    complete: bool = False

    def __post_init__(self):
        w = _Coeffs.of(self.w, complex)
        if (w.idx == 0).any():
            raise ZeroIndex("w(0) is fixed to 0 by the zero-mean normalisation")
        if (w.idx % 2).any():
            raise OddIndex(f"index {w.idx[w.idx % 2 != 0][0]} is odd; the lattice is 2Z")
        object.__setattr__(self, "w", w)

    @property
    def l2_w(self) -> float:
        return math.sqrt(self.w.sumsq())

    @property
    def hermitian_w(self) -> bool:
        """w(-m) == conj(w(m)): the series sum w(m) e^{imx} = i Q is real-valued,
        so Q and v - v0 are purely imaginary."""
        return _isclose(self.w.get(-self.w.idx), self.w.val.conj())

    def covers(self, m):
        """Whether index m (scalar or array) is in the known range (stored or true zero)."""
        return self.complete | (np.abs(m) <= self.max_index)

    def v_table(self, max_offset: int) -> np.ndarray:
        """V(d) for d in [-max_offset, max_offset], indexed d + max_offset."""
        return _Coeffs(self.w.idx, self.w.idx * self.w.val).window(-max_offset, max_offset)


@dataclass(frozen=True)
class SinePotential:
    """Sine-side data: Q(x) = sum_{m>=1} qt(m) sqrt(2) sin(m x), plus v0."""

    v0: complex
    qt: Mapping[int, complex] | _Coeffs
    max_index: int
    complete: bool = False

    def __post_init__(self):
        qt = _Coeffs.of(self.qt, complex)
        if (qt.idx < 1).any():
            raise ValueError("sine indices start at 1; qt(0) is fixed to 0")
        object.__setattr__(self, "qt", qt)

    @property
    def l2_qt(self) -> float:
        return math.sqrt(self.qt.sumsq())

    def covers(self, m):
        return self.complete | (np.asarray(m) <= self.max_index)

    def qt_table(self, max_index: int) -> np.ndarray:
        """qt(m) for 0 <= m <= max_index as a dense vector."""
        return self.qt.window(0, max_index)


@dataclass(frozen=True)
class MajorantSeq:
    """Nonnegative symmetric majorant r(m) = r(|m|) with r(0) = 0.

    ``step`` is the lattice spacing the sequence lives on: 2 for the
    exponential (periodic/antiperiodic) lattice, 1 for the sine lattice.
    The norm is the ell^2 norm over the full symmetric lattice,
    ``norm^2 = r(0)^2 + 2 sum_{m>0} r(m)^2``.
    """

    r: Mapping[int, float] | _Coeffs
    step: int
    norm: float = field(init=False)

    def __post_init__(self):
        r = _Coeffs.of(self.r, float)
        if (r.idx < 0).any():
            raise ValueError("majorant entries are stored for m >= 0 only")
        if (r.val < 0).any():
            raise ValueError(f"majorant value at {r.idx[r.val < 0][0]} must be >= 0")
        if r.get(0) != 0.0:
            raise ValueError("r(0) must be 0")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "norm", math.sqrt(2.0 * r.sumsq(1)))

    def get(self, m: int) -> float:
        return float(self.r.get(abs(int(m))))

    @property
    def max_index(self) -> int:
        return int(self.r.idx[self.r.val > 0].max(initial=0))

    def tail_energy(self, threshold: float) -> float:
        """(sum_{|i| >= threshold} r(i)^2)^(1/2) over stored indices."""
        if threshold <= 0:
            return self.norm
        return math.sqrt(2.0 * self.r.sumsq(threshold))

    def table(self, max_abs: int) -> np.ndarray:
        """r(|j|) for 0 <= |j| <= max_abs as a dense vector (index |j|)."""
        return self.r.window(0, max_abs)


def from_coeffs(v0: complex, entries: Iterable[tuple[int, complex]],
                max_index: int | None = None, complete: bool = True) -> FourierPotential:
    """Build a potential from explicit (even index, coefficient) pairs."""
    w: dict[int, complex] = {}
    for m, c in entries:
        m = int(m)
        if m in w:
            raise DuplicateIndex(f"index {m} given twice")
        w[m] = complex(c)
    if max_index is None:
        max_index = max(map(abs, w), default=0)
    return FourierPotential(complex(v0), w, max_index, complete=complete)


def zero() -> FourierPotential:
    return FourierPotential(0.0, {}, 0, complete=True)


def mathieu(coupling: float = 1.0) -> FourierPotential:
    """v = 2*coupling*cos(2x): V(+-2) = coupling, all other V zero."""
    c = complex(coupling)
    return FourierPotential(0.0, {2: c / 2, -2: -c / 2}, 2, complete=True)


def _even_lattice(max_index: int) -> np.ndarray:
    """The even m != 0 with |m| <= max_index, ascending."""
    m = 2 * np.arange(-(max_index // 2), max_index // 2 + 1)
    return m[m != 0]


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
    m = _even_lattice(max_index)
    w = _Coeffs(m, (mass / (math.pi * m)).astype(complex))
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
    m = _even_lattice(max_index)
    w = _Coeffs(m, -1j * (amplitude / (math.pi * m * m)))
    return FourierPotential(0.0, w, max_index, complete=False)


def majorant(p: FourierPotential) -> MajorantSeq:
    """r(m) = max(|w(m)|, |w(-m)|) on the even lattice."""
    a, slot = np.unique(np.abs(p.w.idx), return_inverse=True)
    r = np.zeros(len(a))
    np.maximum.at(r, slot, _abs(p.w.val))
    return MajorantSeq(_Coeffs(a, r), step=2)


def majorant_dir(sp: SinePotential) -> MajorantSeq:
    """r(m) = |qt(|m|)| on the integer lattice."""
    return MajorantSeq(_Coeffs(sp.qt.idx, _abs(sp.qt.val)), step=1)


def per_to_dir(p: FourierPotential, max_sine: int) -> SinePotential:
    """Sine coefficients of Q = -i S on [0, pi], through ``max_sine``, from
    those of the literal series S(x) = sum w(m) exp(imx), known as far as p
    is: ``max_index`` is min(max_sine, p.max_index) unless p is complete.

    Closed form of s(m) = (sqrt(2)/pi) * integral_0^pi S(x) sin(mx) dx,
    then qt(m) = -i s(m):

    * even m: only the resonant terms k = +-m contribute,
      s(m) = i*(w(m) - w(-m))/sqrt(2);
    * odd m: every k contributes through the elementary integral
      int_0^pi e^{ikx} sin(mx) dx = 2m/(m^2-k^2),
      s(m) = (2*sqrt(2)*m/pi) * sum_{k>0} (w(k) + w(-k))/(m^2-k^2),
      summed in pairs +-k, so the odd data of a pure sine series
      (w(-k) == -w(k): every even potential) are exact zeros, and are
      not summed at all when every pair is zero.
    """
    if max_sine < 1:
        raise ValueError("max_sine must be >= 1")
    w = p.w
    s = np.zeros(max_sine + 1, dtype=complex)
    ev = np.arange(2, max_sine + 1, 2)
    # the real and imaginary parts are divided by sqrt(2) separately, as a
    # Python complex is divided by a float (numpy multiplies by 1/sqrt(2))
    s[ev] = ((1j * (w.get(ev) - w.get(-ev))).view(float) / math.sqrt(2.0)).view(complex)
    if len(w.idx):
        ks = np.sort(np.abs(w.idx))
        # each |k| once: np.unique(ks) imports numpy.ma (with return_inverse it does not)
        ks = ks[np.diff(ks, prepend=0) > 0]
        pairs, ksq = w.get(ks) + w.get(-ks), ks.astype(float) ** 2
        for m in range(1, max_sine + 1, 2) if pairs.any() else ():
            s[m] = (2.0 * math.sqrt(2.0) * m / math.pi) * np.sum(pairs / (m * m - ksq))
    ms = np.flatnonzero(s)
    # The sine expansion terminates exactly only when S has no cosine part.
    pure_sine = bool(np.all(_abs(w.val + w.get(-w.idx)) <= 1e-15))
    return SinePotential(p.v0, _Coeffs(ms, -1j * s[ms]),
                         max_sine if p.complete else min(max_sine, p.max_index),
                         complete=p.complete and pure_sine)


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


# the config key that the parameter of each 'kind:param' shorthand sets
_SHORTHAND_PARAM = {"zero": None, "mathieu": "coupling", "delta_comb": "mass",
                    "sawtooth": "amplitude"}


def parse_potential_arg(arg: str, default_truncation: int = 512) -> FourierPotential:
    """Parse a CLI shorthand such as 'mathieu:1.0' or 'file:gallery.json'.

    A gallery shorthand 'kind:param' is the ``from_config`` mapping with
    that kind, its parameter (default 1) and ``default_truncation``.
    """
    kind, _, param = arg.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        with open(param) as fh:
            return from_config(json.load(fh), default_truncation)
    if kind not in _SHORTHAND_PARAM:
        raise ValueError(f"cannot parse potential argument {arg!r}")
    cfg = {"kind": kind, "truncation": default_truncation}
    if param and _SHORTHAND_PARAM[kind]:
        cfg[_SHORTHAND_PARAM[kind]] = float(param)
    return from_config(cfg)
