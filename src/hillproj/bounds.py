"""Decay-rate sequences and nested coefficient sums, with verdicts.

This module evaluates, by direct truncated summation, the quantities
that control how fast the Riesz projections of a Hill operator approach
the free projections, and machine-checks the inequalities that tie them
together.

Scalar rates for a majorant sequence r (see ``potential.MajorantSeq``):

    rho_tilde(n) = E_n(r) + 2||r||/sqrt(n)
    rho(n)       = C (||r||/sqrt(n) + E_sqrt(n)(r)),  C = rho_constant
    eps(n)       = M [ (2 ln 6n / n)^(1/4) + rho_tilde(n)^(1/2) ],
                   M = 4 (1 + ||r||)
    kappa(n)     = max(rho(n), eps(n));  the target estimate is
                   sum |B_km(n)| <= 64 kappa(n) once kappa(n) < 1/4.

E_t(r) is the symmetric ell^2 tail (sum_{|i|>=t} r(i)^2)^(1/2).  The
constant C is not pinned by the underlying analysis; it is a
configuration knob (default 8) echoed into every report, and it is the
single most consequential free constant here.  Note eps(n) has the hard
floor 4 (2 ln 6n / n)^(1/4), so kappa(n) < 1/4 only occurs at
astronomically large n; at desk scale the 64*kappa comparison is
reported with margins rather than being binding.

Chain sums over a truncated index lattice (j = n mod step, |j| <= cutoff):

    L(p, d) = sum_{i_1..i_p != +-n}  |V(d-i_1)|/|n^2-i_1^2| *
              |V(i_1-i_2)|/|n^2-i_2^2| * ... * |V(i_{p-1}-i_p)|/|n^2-i_p^2|
    R(p, d) = same chain with weights attached to the left index and the
              potential factor |V(i_p - d)| at the end; the index
              reflection j_v = -i_{p+1-v} gives R(p, d) = L(p, -d)
              exactly on a symmetric lattice.
    sigma(n, 1)    = sum_{j != +-n} r(n+j)/|n-j|
    sigma(n, s)    = sum_{j_1..j_s != +-n}
                     prod_v (1/|n-j_v| + 1/|n+j_{v+1}|) * 1/|n-j_s|
                     * r(n+j_1) r(j_1+j_2) ... r(j_{s-1}+j_s)
    sigma1(n,s;m)  = sum_{j_1..j_s != n} r(m+j_1)/|n-j_1| * ... *
                     r(j_{s-1}+j_s)/|n-j_s|
    sigma2(n,s;m)  = sum_{j_1..j_s != +-n} r(m+j_1) * r(j_1+j_2)/|n+j_2|
                     * ... * r(j_{s-1}+j_s)/|n^2-j_s^2|   (s >= 2)
    sigma_tilde(deltas) = the signed-kernel pieces of sigma obtained by
                     expanding the parenthesised brackets; they sum back
                     to sigma(n, s) exactly.

Everything is computed in transfer form.  An index set is held as a mask
on its enclosing arithmetic progression, where every chain operator is
diag * Hankel r(|j_k + j_l|) * diag or diag * Toeplitz |V(j_k - j_l)| *
diag; the middle factor is one masked FFT convolution, so a sweep costs
O(cutoff log cutoff) time and O(cutoff) memory.  The test-suite checks
these against nested-loop enumeration on tiny index sets and against a
dense matrix-power reference.  Truncation always under-counts the sums,
so in the inequality suite a truncated "pass" is meaningful; each value
carries a tail estimate (the increment from the last cutoff doubling)
and ``CutoffTooSmall`` fires when that estimate exceeds 1% of the value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .operator import BoundaryCondition
from .potential import FourierPotential, MajorantSeq, majorant, majorant_dir

__all__ = [
    "CutoffTooSmall",
    "BranchAmbiguity",
    "CheckResult",
    "SeriesReport",
    "rho_tilde",
    "rho_n",
    "eps_n",
    "kappa_and_bound",
    "kappa_for",
    "lattice",
    "l_sum",
    "r_sum",
    "sigma",
    "sigma1",
    "sigma1_profile",
    "sigma2",
    "sigma2_profile",
    "sigma_tilde",
    "sigma_nested_vs_matrix",
    "a0_sum",
    "a0_bound_check",
    "lemma_suite",
    "GATED_CHECKS",
    "report_to_json",
    "report_csv_rows",
]

TAIL_RTOL = 0.01  # tail estimate above this fraction of the value trips the guard


class CutoffTooSmall(RuntimeError):
    """The truncated sum is not converged at the requested cutoff."""


class BranchAmbiguity(ValueError):
    """lambda - j^2 fell on the branch cut of the square root."""


# ---------------------------------------------------------------------------
# scalar rates
# ---------------------------------------------------------------------------

def rho_tilde(r: MajorantSeq, n: int) -> float:
    """Tail-plus-resolvent rate E_n(r) + 2 ||r|| / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return r.tail_energy(n) + 2.0 * r.norm / math.sqrt(n)

def rho_n(r: MajorantSeq, n: int, rho_constant: float = 8.0) -> float:
    """C (||r||/sqrt(n) + E_sqrt(n)(r)) with the configured constant C."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return rho_constant * (r.norm / math.sqrt(n) + r.tail_energy(math.sqrt(n)))

def eps_n(r: MajorantSeq, n: int) -> float:
    """M [ (2 ln 6n / n)^(1/4) + rho_tilde(n)^(1/2) ] with M = 4 (1 + ||r||)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m_const = 4.0 * (1.0 + r.norm)
    return m_const * ((2.0 * math.log(6.0 * n) / n) ** 0.25
                      + math.sqrt(rho_tilde(r, n)))

def kappa_and_bound(rho: float, eps: float) -> tuple[float, float, bool]:
    """kappa = max(rho, eps), the 64*kappa estimate, and its validity flag."""
    if rho < 0 or eps < 0:
        raise ValueError("rates must be nonnegative")
    kappa = max(rho, eps)
    return kappa, 64.0 * kappa, kappa < 0.25

def kappa_for(r: MajorantSeq, n: int, rho_constant: float = 8.0):
    """Convenience: (rho, eps, kappa, 64*kappa, valid) for one majorant/level."""
    rho = rho_n(r, n, rho_constant)
    eps = eps_n(r, n)
    kappa, bound64, valid = kappa_and_bound(rho, eps)
    return rho, eps, kappa, bound64, valid


# ---------------------------------------------------------------------------
# lattices and lookup tables
# ---------------------------------------------------------------------------

def lattice(n: int, cutoff: int, step: int = 2, exclude: tuple[int, ...] = ()) -> np.ndarray:
    """Indices j = n (mod step), |j| <= cutoff, minus the excluded ones."""
    j = np.arange(-cutoff, cutoff + 1)
    if step == 2:
        j = j[(j - n) % 2 == 0]
    elif step != 1:
        raise ValueError("step must be 1 or 2")
    if exclude:
        mask = np.ones(len(j), dtype=bool)
        for e in exclude:
            mask &= j != e
        j = j[mask]
    return j


def _vabs_lookup(source, max_offset: int) -> np.ndarray:
    """|V| over offsets [-max_offset, max_offset] (index d + max_offset).

    A FourierPotential contributes |V(d)| = |d w(d)|; a MajorantSeq
    stands in for |V| through its worst case |d| r(|d|).
    """
    if isinstance(source, FourierPotential):
        return source.vabs_table(max_offset)
    if isinstance(source, MajorantSeq):
        d = np.arange(-max_offset, max_offset + 1)
        return np.abs(d) * source.table(max_offset)[np.abs(d)]
    raise TypeError("expected a FourierPotential or MajorantSeq")


def _tail(full, half) -> tuple[float, float]:
    """A value and its cutoff-doubling increment; for a profile, where that is largest."""
    full, half = np.atleast_1d(full), np.atleast_1d(half)
    k = int(np.argmax(np.abs(full - half)))
    return float(full[k]), abs(float(full[k]) - float(half[k]))


def _truncated(orders_on, what: str, n: int, cutoff, step: int, exclude, indices,
               check_tail: bool):
    """Top order of a chain sum on the default lattice or on ``indices``.

    ``orders_on(idx)`` returns every order up to the requested one.  With
    ``check_tail`` on the default lattice the value is recomputed at half
    the cutoff, and ``CutoffTooSmall`` fires when the increment exceeds
    TAIL_RTOL of it.
    """
    if indices is not None:
        return orders_on(np.asarray(indices))[-1]
    if cutoff is None:
        cutoff = 8 * n
    if cutoff < 8 * n:
        raise ValueError("cutoff must be at least 8*n")
    val = orders_on(lattice(n, cutoff, step, exclude))[-1]
    if check_tail:
        full, est = _tail(val, orders_on(lattice(n, cutoff // 2, step, exclude))[-1])
        if full > 0 and est > TAIL_RTOL * full:
            raise CutoffTooSmall(
                f"{what}: tail estimate {est:.3e} exceeds {TAIL_RTOL:.0%} "
                f"of the value {full:.6e}; raise the cutoff")
    return val


# ---------------------------------------------------------------------------
# the transfer kernel
# ---------------------------------------------------------------------------

class _Lattice:
    """An index set held as a mask on its enclosing progression.

    The progression is j_k = j0 + g k (0 <= k < N, g the gcd of the index
    differences); ``j`` holds it and ``mask`` marks the set.
    """

    def __init__(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        j0 = int(idx.min())
        g = int(np.gcd.reduce(idx - j0)) or 1
        k = (idx - j0) // g
        self.mask = np.zeros(int(k.max()) + 1, dtype=bool)
        self.mask[k] = True
        size = len(self.mask)
        self.j = j0 + g * np.arange(size)
        self.top = int(np.abs(self.j).max())
        self.sums = 2 * j0 + g * np.arange(2 * size - 1)   # j_k + j_l at k + l
        self.diffs = g * np.arange(1 - size, size)         # j_k - j_l at k - l + N - 1

    def weight(self, denom: np.ndarray) -> np.ndarray:
        """1/denom on the set and 0 off it; an excluded +-n never divides."""
        return np.divide(1.0, np.abs(denom), out=np.zeros(len(denom)), where=self.mask)

    def transfer(self, kernel: np.ndarray, hankel: bool):
        """x -> K x restricted to the set, where K[k, l] = kernel[k + l]
        (Hankel) or kernel[k - l + N - 1] (Toeplitz).

        K is applied as a zero-padded FFT convolution of length >= 2N - 1,
        so no wrap-around reaches the N entries kept.  Entries off the set
        are zeroed on input and on output; excluding an index needs both.
        """
        size = len(self.mask)
        nfft = 1 << (2 * size - 2).bit_length()
        spec = np.fft.rfft(kernel, nfft)

        def apply(x: np.ndarray) -> np.ndarray:
            x = np.where(self.mask, x, 0.0)
            y = np.fft.irfft(spec * np.fft.rfft(x[::-1] if hankel else x, nfft), nfft)
            return np.where(self.mask, y[size - 1:2 * size - 1], 0.0)

        return apply

    def hankel(self, r: MajorantSeq, reach: int):
        """r(|j|) out to 2*top + reach, and the Hankel transfer r(|j_k + j_l|)."""
        rtab = r.table(2 * self.top + reach)
        return rtab, self.transfer(rtab[np.abs(self.sums)], hankel=True)


# ---------------------------------------------------------------------------
# chain sums L and R
# ---------------------------------------------------------------------------

def _chain_orders(vabs_src, n: int, idx, p_max: int, d: int):
    """L(p, d) and R(p, d) for p = 1..p_max on one index set."""
    lat = _Lattice(idx)
    off = 2 * lat.top + abs(d)
    vabs = _vabs_lookup(vabs_src, off)
    toep = lat.transfer(vabs[lat.diffs + off], hankel=False)
    wsq = lat.weight(n * n - lat.j.astype(float) ** 2)
    u = vabs[(d - lat.j) + off] * wsq
    y = vabs[(lat.j - d) + off] * wsq
    g = lat.mask.astype(float)
    ls, rs = [float(u @ g)], [float(y.sum())]
    for _ in range(p_max - 1):
        g = toep(wsq * g)
        y = wsq * toep(y)
        ls.append(float(u @ g))
        rs.append(float(y.sum()))
    return ls, rs


def l_sum(vabs_src, p: int, d: int, n: int, cutoff: int | None = None,
          step: int = 2, indices=None, check_tail: bool = True) -> float:
    """Truncated chain sum L(p, d) in transfer form.

    ``indices`` overrides the default lattice (then no tail check runs).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return _truncated(lambda idx: _chain_orders(vabs_src, n, idx, p, d)[0], f"L({p},{d})",
                      n, cutoff, step, (n, -n), indices, check_tail)


def r_sum(vabs_src, p: int, d: int, n: int, cutoff: int | None = None,
          step: int = 2, indices=None, check_tail: bool = True) -> float:
    """Truncated chain sum R(p, d); equals L(p, -d) on a symmetric lattice."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _truncated(lambda idx: _chain_orders(vabs_src, n, idx, p, d)[1], f"R({p},{d})",
                      n, cutoff, step, (n, -n), indices, check_tail)


# ---------------------------------------------------------------------------
# majorant chain sums
# ---------------------------------------------------------------------------

def _sigma_orders(r: MajorantSeq, n: int, idx, s_max: int) -> list[float]:
    """sigma(n, s) for s = 1..s_max."""
    lat = _Lattice(idx)
    rtab, hank = lat.hankel(r, abs(n))
    a = rtab[np.abs(n + lat.j)]
    wminus, wplus = lat.weight(n - lat.j), lat.weight(n + lat.j)
    v = wminus
    out = [float(a @ v)]
    for _ in range(s_max - 1):
        v = wminus * hank(v) + hank(wplus * v)
        out.append(float(a @ v))
    return out


def sigma(r: MajorantSeq, n: int, s: int, cutoff: int | None = None,
          step: int = 2, indices=None, check_tail: bool = True) -> float:
    """Truncated bracketed majorant chain sigma(n, s)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _truncated(lambda idx: _sigma_orders(r, n, idx, s), f"sigma(n,{s})",
                      n, cutoff, step, (n, -n), indices, check_tail)


def _sigma1_orders(r: MajorantSeq, n: int, idx, s_max: int, ms: np.ndarray) -> list:
    """sigma1(n, s; m) over ms for s = 1..s_max."""
    lat = _Lattice(idx)
    rtab, hank = lat.hankel(r, abs(n) + int(np.abs(ms).max(initial=0)))
    wminus = lat.weight(n - lat.j)
    front = rtab[np.abs(ms[:, None] + lat.j[None, :])] * wminus
    g = lat.mask.astype(float)
    out = [front @ g]
    for _ in range(s_max - 1):
        g = hank(wminus * g)
        out.append(front @ g)
    return out


def sigma1(r: MajorantSeq, n: int, s: int, m: int, cutoff: int | None = None,
           step: int = 2, indices=None, check_tail: bool = True) -> float:
    """Truncated one-sided majorant chain sigma1(n, s; m) (excludes j = n only)."""
    return float(sigma1_profile(r, n, s, [m], cutoff, step, indices, check_tail)[0])


def sigma1_profile(r: MajorantSeq, n: int, s: int, m_values, cutoff: int | None = None,
                   step: int = 2, indices=None, check_tail: bool = True) -> np.ndarray:
    """sigma1(n, s; m) for several m at once (one transfer sweep)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    ms = np.asarray(list(m_values))
    return _truncated(lambda idx: _sigma1_orders(r, n, idx, s, ms), f"sigma1(n,{s};m)",
                      n, cutoff, step, (n,), indices, check_tail)


def _sigma2_orders(r: MajorantSeq, n: int, idx, s_max: int, ms: np.ndarray) -> list:
    """sigma2(n, s; m) over ms for s = 2..s_max."""
    lat = _Lattice(idx)
    rtab, hank = lat.hankel(r, abs(n) + int(np.abs(ms).max(initial=0)))
    front = rtab[np.abs(ms[:, None] + lat.j[None, :])]
    wplus = lat.weight(n + lat.j)
    z = hank(lat.weight(n * n - lat.j.astype(float) ** 2))
    out = [front @ z]
    for _ in range(s_max - 2):
        z = hank(wplus * z)
        out.append(front @ z)
    return out


def sigma2(r: MajorantSeq, n: int, s: int, m: int, cutoff: int | None = None,
           step: int = 2, indices=None, check_tail: bool = True) -> float:
    """Truncated mixed majorant chain sigma2(n, s; m) (s >= 2, excludes +-n)."""
    return float(sigma2_profile(r, n, s, [m], cutoff, step, indices, check_tail)[0])


def sigma2_profile(r: MajorantSeq, n: int, s: int, m_values, cutoff: int | None = None,
                   step: int = 2, indices=None, check_tail: bool = True) -> np.ndarray:
    if s < 2:
        raise ValueError("s must be >= 2")
    ms = np.asarray(list(m_values))
    return _truncated(lambda idx: _sigma2_orders(r, n, idx, s, ms), f"sigma2(n,{s};m)",
                      n, cutoff, step, (n, -n), indices, check_tail)


def _sigma_tilde_pieces(r: MajorantSeq, n: int, idx, sign_vectors) -> list[float]:
    """The signed-kernel piece of sigma for each sign vector."""
    lat = _Lattice(idx)
    rtab, hank = lat.hankel(r, abs(n))
    a = rtab[np.abs(n + lat.j)]
    wminus, wplus = lat.weight(n - lat.j), lat.weight(n + lat.j)
    out = []
    for deltas in sign_vectors:
        v = wminus
        for dlt in reversed(list(deltas)):
            if dlt == -1:
                v = wminus * hank(v)
            elif dlt == +1:
                v = hank(wplus * v)
            else:
                raise ValueError("deltas entries must be +-1")
        out.append(float(a @ v))
    return out


def sigma_tilde(r: MajorantSeq, n: int, deltas, cutoff: int | None = None,
                step: int = 2, indices=None) -> float:
    """One signed-kernel piece of sigma(n, s) for s = len(deltas) + 1.

    delta = -1 attaches the weight 1/|n - j_left| to the kernel, delta = +1
    attaches 1/|n + j_right|; summing over all sign vectors recovers
    sigma(n, s) exactly.
    """
    return _truncated(lambda idx: _sigma_tilde_pieces(r, n, idx, [deltas]), "sigma_tilde",
                      n, cutoff, step, (n, -n), indices, check_tail=False)


# ---------------------------------------------------------------------------
# operator-product identity on small index sets
# ---------------------------------------------------------------------------

def sigma_nested_vs_matrix(pot: FourierPotential, indices, lam: complex, s: int) -> float:
    """Max gap between the resolvent-product matrix and the nested chain sum.

    On a small index set J builds K = diag(1/sqrt(lam - j^2)) (principal
    branch) and V[j, k] = V(j - k), forms K (K V K)^(s+1) K, and compares
    each (k, m) entry against the explicit nested sum

        sum_{j_1..j_s in J} V(k-j_1) V(j_1-j_2) ... V(j_s-m)
                            / ((lam-j_1^2) ... (lam-j_s^2))

    divided by (lam-k^2)(lam-m^2).  The square-root branch cancels in
    (K)^2, but a lam - j^2 on the cut (negative reals) is refused.
    """
    idx = np.asarray(list(indices))
    if len(idx) > 64:
        raise ValueError("index set too large for the nested-loop comparison")
    if s < 0:
        raise ValueError("s must be >= 0")
    shift = lam - idx.astype(complex) ** 2
    on_cut = (shift.imag == 0) & (shift.real <= 0)
    if on_cut.any():
        raise BranchAmbiguity("lam - j^2 on the branch cut for some j")
    K = np.diag(1.0 / np.sqrt(shift))
    off = int(np.abs(idx[:, None] - idx[None, :]).max(initial=0))
    vtab = pot.v_table(off)
    V = vtab[(idx[:, None] - idx[None, :]) + off]
    prod = K @ np.linalg.matrix_power(K @ V @ K, s + 1) @ K

    denom_out = shift[:, None] * shift[None, :]
    if s == 0:
        target = V / denom_out
        return float(np.abs(prod - target).max())
    # nested sum built one chain index at a time: carry[a, j] accumulates the
    # product of couplings/denominators from k = idx[a] through j_t = idx[j]
    carry = V / shift[None, :]
    for _ in range(s - 1):
        carry = (carry @ V) / shift[None, :]
    sig = carry @ V
    target = sig / denom_out
    return float(np.abs(prod - target).max())


# ---------------------------------------------------------------------------
# first-order total mass
# ---------------------------------------------------------------------------

def a0_sum(pot, bc: BoundaryCondition, n: int, cutoff: int) -> float:
    """Total absolute mass of the first-order residues over the lattice.

    Sums |first-order residue| over the nonzero pattern (the +-n rows and
    columns): equals 2 * sum_{k != +-n} (|W(k,n)| + |W(k,-n)|)/|n^2-k^2|
    for the periodic families (Dirichlet keeps only the n row/column).
    """
    if bc.is_periodic_family:
        idx = lattice(n, cutoff, 2, (n, -n))
        off = int(np.abs(idx).max(initial=0)) + n
        vabs = pot.vabs_table(off)
        wsq = 1.0 / np.abs(n * n - idx.astype(float) ** 2)
        return float(2.0 * ((vabs[(idx - n) + off] + vabs[(idx + n) + off]) * wsq).sum())
    ks = np.arange(1, cutoff + 1)
    ks = ks[ks != n]
    qt = pot.qt_table(int(ks.max()) + n)
    d = np.abs(ks - n)
    ssum = ks + n
    w = np.abs(d * qt[d] - ssum * qt[ssum]) / math.sqrt(2.0)
    return float(2.0 * (w / np.abs(n * n - ks.astype(float) ** 2)).sum())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    lhs: float
    rhs: float
    note: str = ""

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def a0_bound_check(pot, bc: BoundaryCondition, n: int, cutoff: int | None = None) -> CheckResult:
    """First-order total against 4||r||/sqrt(n) + 4 E_n(r)."""
    if cutoff is None:
        cutoff = 8 * n
    if bc.is_periodic_family:
        r = majorant(pot)
    else:
        r = majorant_dir(pot)
    lhs = a0_sum(pot, bc, n, cutoff)
    rhs = 4.0 * r.norm / math.sqrt(n) + 4.0 * r.tail_energy(n)
    return CheckResult("first_order_total", lhs <= rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# the inequality suite
# ---------------------------------------------------------------------------

# Checks whose failure is a build failure (unless the tail estimate
# exceeds the deficit); the remaining checks are informative extras.
GATED_CHECKS = frozenset({
    "sigma1_single_near",       # sigma1(n,1;m) <= rho_tilde for |m-n| <= n/2
    "sigma1_single_global",     # sigma1(n,1;m) <= ||r||
    "sigma1_even_power",        # sigma1(n,2p;m) <= (2||r|| rho_tilde)^p
    "sigma1_odd_power",         # sigma1(n,2p+1;m) <= ||r|| (2||r|| rho_tilde)^p
    "sigma1_two_step_recursion",  # sigma1(n,s+2;m) <= sigma1(n,s;m) 2||r|| rho_tilde
    "sigma2_pair",              # sigma2(n,2;m) <= ||r||^2 2 ln(6n)/n
    "sigma2_chain",             # sigma2(n,s;m) <= ||r||^2 (2 ln 6n / n) sup sigma1(n,s-2)
    "harmonic_weight_sum",      # sum_{j != +-n} 1/|n^2-j^2| < 2 ln(6n)/n
    "first_order_total",        # a0 mass <= 4||r||/sqrt(n) + 4 E_n(r)
    "chain_le_sigma",           # L(s, +-n) <= sigma(n, s)
})


@dataclass
class SeriesReport:
    """Evaluated rates, chain-sum tables, and inequality verdicts."""

    inputs: dict
    values: dict
    l_table: dict
    r_table: dict
    sigma_table: dict
    sigma1_sup: dict
    sigma2_sup: dict
    checks: list = field(default_factory=list)
    tail_estimates: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def gated_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.name in GATED_CHECKS)

    def failed(self):
        return [c for c in self.checks if not c.passed]


def _default_m_samples(n: int, cutoff: int, step: int) -> np.ndarray:
    offs = step * np.array([0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 16, -16, 32, -32])
    ms = set()
    for base in (n, -n):
        for o in offs:
            ms.add(int(base + o))
    ms.add(n % step if step == 2 else 0)  # a smallest-|m| representative
    return np.array(sorted(ms))


def lemma_suite(r: MajorantSeq, n: int, cutoff: int | None = None, *,
                potential: FourierPotential | None = None,
                rho_constant: float = 8.0, s_max: int = 4, p_max: int = 4,
                step: int = 2, m_samples=None) -> SeriesReport:
    """Evaluate the inequality suite for one majorant and level.

    All left-hand sides are truncated sums (which only under-count), so a
    pass is meaningful at truncation; tail estimates are recorded per
    quantity instead of raising.  The sup over the chain parameter m runs
    over a deterministic sample set around +-n plus far probes; this
    under-counts right-hand-side sups as well, which keeps every
    comparison conservative.  Comparisons allow a relative 1e-12 slack:
    for majorants with symmetric |w| several inequalities are exact
    equalities, where rounding alone decides the sign.
    """
    if n < 4:
        raise ValueError("the single-step bounds need n >= 4")
    if cutoff is None:
        cutoff = max(8 * n, 4096)
    if cutoff < 8 * n:
        raise ValueError("cutoff must be at least 8*n")
    if m_samples is None:
        m_samples = _default_m_samples(n, cutoff, step)
    ms = np.asarray(m_samples)

    norm = r.norm
    rt = rho_tilde(r, n)
    rho, eps, kappa, bound64, valid = kappa_for(r, n, rho_constant)
    logw = 2.0 * math.log(6.0 * n) / n
    m_const = 4.0 * (1.0 + norm)

    tails: dict[str, float] = {}

    def tracked(label, full, half):
        val, est = _tail(full, half)
        tails[label] = est / abs(val) if val != 0 else 0.0

    def swept(label, first, orders_on, exclude):
        """Every order on the lattice, with tails against the half-cutoff lattice."""
        full = orders_on(lattice(n, cutoff, step, exclude))
        half = orders_on(lattice(n, cutoff // 2, step, exclude))
        for s, (f, h) in enumerate(zip(full, half), first):
            tracked(label.format(s), f, h)
        return dict(enumerate(full, first))

    pm = (n, -n)
    sig = swept("sigma[s={}]", 1, lambda idx: _sigma_orders(r, n, idx, s_max), pm)
    s1 = swept("sigma1[s={}]", 1, lambda idx: _sigma1_orders(r, n, idx, s_max + 2, ms), (n,))
    s2 = swept("sigma2[s={}]", 2, lambda idx: _sigma2_orders(r, n, idx, s_max, ms), pm)

    checks: list[CheckResult] = []

    def add(name, lhs, rhs, note=""):
        ok = bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))
        checks.append(CheckResult(name, ok, float(lhs), float(rhs), note))

    near = np.abs(ms - n) <= n / 2
    if near.any():
        add("sigma1_single_near", s1[1][near].max(), rt, "|m-n| <= n/2")
    add("sigma1_single_global", s1[1].max(), norm)

    for p in range(1, s_max // 2 + 1):
        add("sigma1_even_power", s1[2 * p].max(), (2.0 * norm * rt) ** p, f"s=2p={2 * p}")
        add("sigma1_odd_power", s1[2 * p + 1].max(), norm * (2.0 * norm * rt) ** p,
            f"s=2p+1={2 * p + 1}")

    for s in range(1, min(s_max, 2) + 1):
        lhs = s1[s + 2] - s1[s] * (2.0 * norm * rt)
        add("sigma1_two_step_recursion", lhs.max(), 0.0, f"s={s} -> s+2")

    add("sigma2_pair", s2[2].max(), norm * norm * logw)
    for s in range(3, s_max + 1):
        add("sigma2_chain", s2[s].max(), norm * norm * logw * s1[s - 2].max(), f"s={s}")

    idx_w = lattice(n, max(cutoff, 10 ** 5), step, (n, -n))
    wsum = float(np.sum(1.0 / np.abs(n * n - idx_w.astype(float) ** 2)))
    add("harmonic_weight_sum", wsum, logw)

    pos_n = int(np.nonzero(ms == n)[0][0])
    add("sigma_one_equals_profile", abs(sig[1] - float(s1[1][pos_n])),
        1e-12 * max(1.0, sig[1]), "identity")

    for s in range(1, s_max + 1):
        add("sigma_le_eps_power", sig[s], eps ** s, f"s={s}")

    # signed-kernel split: exact resummation and the per-piece bound
    idx_pm = lattice(n, cutoff, step, pm)
    for s in range(2, s_max + 1):
        pieces = _sigma_tilde_pieces(r, n, idx_pm, itertools.product((-1, 1), repeat=s - 1))
        add("sigma_splits_exact", abs(sum(pieces) - sig[s]),
            1e-10 * max(1.0, sig[s]), f"s={s}")
        add("signed_kernel_bound", max(pieces), (eps / 2.0) ** s, f"s={s}")

    for p in range(1, s_max // 2 + 1):
        add("sigma1_even_half_eps", s1[2 * p].max(), (eps / 2.0) ** (2 * p), f"s={2 * p}")
        add("sigma1_odd_half_eps", s1[2 * p + 1].max(), norm * (eps / 2.0) ** (2 * p),
            f"s={2 * p + 1}")
    for s in range(2, s_max + 1):
        add("sigma2_half_eps", s2[s].max(), (eps / 2.0) ** (s + 1) / m_const, f"s={s}")

    l_table: dict[str, float] = {}
    r_table: dict[str, float] = {}
    if potential is not None:
        for d in pm:
            ls = swept(f"L({{}},{d:+d})", 1,
                       lambda idx: _chain_orders(potential, n, idx, p_max, d)[0], pm)
            rs = _chain_orders(potential, n, idx_pm, p_max, d)[1]
            for p in ls:
                l_table[f"{p},{d:+d}"], r_table[f"{p},{d:+d}"] = ls[p], rs[p - 1]
        for p in range(1, p_max + 1):
            for d in (n, -n):
                rv = r_table[f"{p},{d:+d}"]
                add("reflection_identity", abs(rv - l_table[f"{p},{-d:+d}"]),
                    1e-12 * max(1.0, rv), f"R({p},{d:+d}) = L({p},{-d:+d})")
        for s in range(1, min(p_max, s_max) + 1):
            for d in (n, -n):
                lv = l_table[f"{s},{d:+d}"]
                add("chain_le_sigma", lv, sig[s], f"L({s},{d:+d})")
                add("chain_le_eps_power", lv, eps ** s, f"L({s},{d:+d})")
        bc = BoundaryCondition.PER_PLUS if step == 2 else BoundaryCondition.DIRICHLET
        checks.append(a0_bound_check(potential, bc, n, cutoff))

    report = SeriesReport(
        inputs={
            "n": n, "cutoff": cutoff, "step": step, "rho_constant": rho_constant,
            "r_norm": norm, "r_max_index": r.max_index, "m_const": m_const,
            "s_max": s_max, "p_max": p_max,
            "m_samples": [int(m) for m in ms],
            "potential": getattr(potential, "__class__", type(None)).__name__
            if potential is not None else None,
        },
        values={
            "rho_tilde": rt, "rho": rho, "eps": eps, "kappa": kappa,
            "bound64": bound64, "kappa_valid": valid, "eps_lt_1": eps < 1.0,
            "log_weight": logw,
        },
        l_table=l_table, r_table=r_table,
        sigma_table={str(s): v for s, v in sig.items()},
        sigma1_sup={str(s): float(v.max()) for s, v in s1.items()},
        sigma2_sup={str(s): float(v.max()) for s, v in s2.items()},
        checks=checks,
        tail_estimates=tails,
    )
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_to_json(report: SeriesReport) -> str:
    payload = {
        "inputs": report.inputs,
        "values": report.values,
        "L": report.l_table,
        "R": report.r_table,
        "sigma": report.sigma_table,
        "sigma1_sup": report.sigma1_sup,
        "sigma2_sup": report.sigma2_sup,
        "tail_estimates": report.tail_estimates,
        "checks": [
            {"name": c.name, "passed": c.passed, "lhs": c.lhs, "rhs": c.rhs,
             "margin": c.margin, "note": c.note, "gated": c.name in GATED_CHECKS}
            for c in report.checks
        ],
        "all_passed": report.all_passed,
        "gated_passed": report.gated_passed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def report_csv_rows(report: SeriesReport) -> list[list]:
    """One row per inequality: name, note, passed, lhs, rhs, margin, gated."""
    rows = [["name", "note", "passed", "lhs", "rhs", "margin", "gated"]]
    for c in report.checks:
        rows.append([c.name, c.note, int(c.passed), f"{c.lhs:.12e}",
                     f"{c.rhs:.12e}", f"{c.margin:.12e}",
                     int(c.name in GATED_CHECKS)])
    return rows
