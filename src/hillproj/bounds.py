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
                     to sigma(n, s) exactly (``_sigma_tilde_pieces``).

The first-order mass of the ``first_order_total`` check is the sum of
|``first_order_residue``| over the +-n columns plus the +-n rows of the
lattice (k >= 1 and n alone under Dirichlet).  Rows and columns carry the
same total for every potential, complex ones included: the reflection
(k, m) -> (-k, -m) of the symmetric per+- lattice swaps them, and the
sine coupling is symmetric in (k, m).

Everything is computed in transfer form.  An index set is held as a mask
on its enclosing arithmetic progression, where every chain operator is
diag * Hankel r(|j_k + j_l|) * diag or diag * Toeplitz |V(j_k - j_l)| *
diag; the middle factor is one masked FFT convolution of 5-smooth length,
its kernel transformed once per lattice, so a sweep costs O(cutoff log
cutoff) time and O(cutoff) memory.  Each sum zeroes its own indices (+-n,
or n for sigma1) in its weights.  One L sweep serves d = +-n, R has its
own, and one tree yields every signed-kernel piece; tests compare them
with enumeration and dense matrix powers.  Truncation always under-counts
the sums, so in the inequality suite a truncated "pass" is meaningful;
each value carries a tail estimate (the increment from the last cutoff
doubling, relative to the value: ``_tail``).  On the default lattice with
``check_tail`` on, the public sums (``l_sum``, ``sigma`` and the rest)
raise ``CutoffTooSmall`` when that estimate exceeds TAIL_RTOL = 1%;
``lemma_suite`` raises nothing for it, records every estimate in
``tail_estimates`` and reports the largest against the same TAIL_RTOL as
its ``cutoff_converged`` verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .operator import BoundaryCondition, coupling
from .potential import FourierPotential, MajorantSeq, SinePotential
from .projector import first_order_residue

__all__ = [
    "CutoffTooSmall",
    "BranchAmbiguity",
    "CheckResult",
    "SeriesReport",
    "rho_tilde",
    "rho_n",
    "eps_n",
    "kappa_for",
    "lattice",
    "l_sum",
    "r_sum",
    "sigma",
    "sigma1",
    "sigma1_profile",
    "sigma2",
    "sigma2_profile",
    "sigma_nested_vs_matrix",
    "default_cutoff",
    "lemma_suite",
    "GATED_CHECKS",
    "report_to_json",
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

def kappa_for(r: MajorantSeq, n: int, rho_constant: float = 8.0):
    """(rho, eps, kappa, 64*kappa, valid) with kappa = max(rho, eps), valid iff kappa < 1/4."""
    rho = rho_n(r, n, rho_constant)
    eps = eps_n(r, n)
    kappa = max(rho, eps)
    return rho, eps, kappa, 64.0 * kappa, kappa < 0.25


# ---------------------------------------------------------------------------
# lattices and lookup tables
# ---------------------------------------------------------------------------

def lattice(n: int, cutoff: int, step: int = 2, exclude: tuple[int, ...] = ()) -> np.ndarray:
    """Indices j = n (mod step), |j| <= cutoff, minus the excluded ones."""
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    j = np.arange(-cutoff + (n + cutoff) % step, cutoff + 1, step)
    keep = np.ones(len(j), dtype=bool)
    for e in exclude:
        keep &= j != e
    return j[keep]


def _vabs_lookup(source, max_offset: int) -> np.ndarray:
    """|V| over offsets [-max_offset, max_offset] (index d + max_offset).

    A FourierPotential contributes |V(d)|, its per+- ``coupling`` at
    m = 0; a MajorantSeq stands in for |V| through its worst case |d| r(|d|).
    """
    d = np.arange(-max_offset, max_offset + 1)
    if isinstance(source, FourierPotential):
        return np.abs(coupling(source, BoundaryCondition.PER_PLUS, d, 0))
    if isinstance(source, MajorantSeq):
        return np.abs(d) * source.table(max_offset)[np.abs(d)]
    raise TypeError("expected a FourierPotential or MajorantSeq")


def _tail(full, half) -> float:
    """The increment of a value from the last cutoff doubling, relative to
    the value (0 for a zero value); for a profile, where it is largest."""
    full, half = np.atleast_1d(full), np.atleast_1d(half)
    k = int(np.argmax(np.abs(full - half)))
    val = float(full[k])
    return abs(val - float(half[k])) / abs(val) if val != 0 else 0.0


def _lattices(n: int, cutoff: int, step: int, halved: bool = True, **kernels):
    """The ``_Lattice`` at ``cutoff`` and, when ``halved``, the one at
    cutoff // 2 that the tail estimate compares it with (built lazily)."""
    if cutoff < 8 * n:
        raise ValueError("cutoff must be at least 8*n")
    cutoffs = (cutoff, cutoff // 2) if halved else (cutoff,)
    return (_Lattice(lattice(n, c, step), **kernels) for c in cutoffs)


def _truncated(orders_on, what: str, n: int, cutoff, step: int, indices, check_tail: bool,
               **kernels):
    """Top order of a chain sum on the default lattice or on ``indices``.

    ``orders_on(lat)`` returns every order up to the requested one on a
    ``_Lattice`` built with ``kernels``.  With ``check_tail`` on the
    default lattice the value is recomputed at half the cutoff, and
    ``CutoffTooSmall`` fires when its ``_tail`` exceeds TAIL_RTOL.
    """
    if indices is not None:
        return orders_on(_Lattice(indices, **kernels))[-1]
    vals = [orders_on(lat)[-1] for lat in
            _lattices(n, 8 * n if cutoff is None else cutoff, step, check_tail, **kernels)]
    if check_tail and (tail := _tail(*vals)) > TAIL_RTOL:
        raise CutoffTooSmall(f"{what}: relative tail estimate {tail:.3e} exceeds "
                             f"{TAIL_RTOL:.0%}; raise the cutoff")
    return vals[0]


# ---------------------------------------------------------------------------
# the transfer kernel
# ---------------------------------------------------------------------------

def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: each odd part times the least power of two reaching n."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), 3 * p35
        p5 *= 5
    return best


def _sweep(x, step, count: int) -> list:
    """The first ``count`` iterates x, step(x), step(step(x)), ... of a transfer sweep."""
    out = [x]
    for _ in range(count - 1):
        out.append(step(out[-1]))
    return out


class _Lattice:
    """An index set held as a mask on its enclosing progression, and its kernels.

    The progression is j_k = j0 + g k (0 <= k < N, g the gcd of the index
    differences); ``j`` holds it and ``mask`` marks the set.  ``hank`` is the
    transfer of r(|j_k + j_l|) (``rtab`` = r(|i|), |i| <= off = 2 max|j| + reach),
    ``toep`` that of |V(j_k - j_l)| (``vabs`` = |V(d)| at d + off): each
    kernel is transformed once, for every sum on the lattice.
    """

    def __init__(self, idx, r: MajorantSeq | None = None, vabs_src=None, reach: int = 0):
        idx = np.asarray(idx, dtype=np.int64)
        j0 = int(idx.min())
        g = int(np.gcd.reduce(idx - j0)) or 1
        k = (idx - j0) // g
        self.mask = np.zeros(int(k.max()) + 1, dtype=bool)
        self.mask[k] = True
        size = len(self.mask)
        self.j = j0 + g * np.arange(size)
        self.off = 2 * int(np.abs(self.j).max()) + reach
        sums = 2 * j0 + g * np.arange(2 * size - 1)   # j_k + j_l at k + l
        diffs = g * np.arange(1 - size, size)         # j_k - j_l at k - l + N - 1
        if r is not None:
            self.rtab = r.table(self.off)
            self.hank = self.transfer(self.rtab[np.abs(sums)], hankel=True)
        if vabs_src is not None:
            self.vabs = _vabs_lookup(vabs_src, self.off)
            self.toep = self.transfer(self.vabs[diffs + self.off], hankel=False)

    def weight(self, denom, skip: tuple[int, ...]) -> np.ndarray:
        """1/|denom| on the set minus ``skip`` (a sum's own excluded indices), 0 elsewhere."""
        on = self.mask & ~np.isin(self.j, skip)
        return np.divide(1.0, np.abs(denom), out=np.zeros(len(self.j)), where=on)

    def transfer(self, kernel: np.ndarray, hankel: bool):
        """x -> K x restricted to the set, where K[k, l] = kernel[k + l]
        (Hankel) or kernel[k - l + N - 1] (Toeplitz).

        K is applied as a zero-padded FFT convolution of length >= 2N - 1,
        so no wrap-around reaches the N entries kept; the least 5-smooth
        length runs nearly as fast as a power of two, which at N = 2^k + 1
        would pad almost 2x.  Entries off the set are zeroed on input and
        on output.  The map holds no reference to the lattice: no cycle.
        """
        mask, size = self.mask, len(self.mask)
        nfft = _fft_length(2 * size - 1)
        spec = np.fft.rfft(kernel, nfft)

        def apply(x: np.ndarray) -> np.ndarray:
            x = np.where(mask, x, 0.0)
            y = np.fft.irfft(spec * np.fft.rfft(x[::-1] if hankel else x, nfft), nfft)
            return np.where(mask, y[size - 1:2 * size - 1], 0.0)

        return apply


# ---------------------------------------------------------------------------
# chain sums L and R
# ---------------------------------------------------------------------------

def _chain_orders(lat: _Lattice, n: int, p_max: int, l_ds=(), r_ds=()):
    """{d: L(p, d)} over ``l_ds`` and {d: R(p, d)} over ``r_ds``, p = 1..p_max, off +-n.

    Only L's front depends on d, so one sweep g = T^(p-1) 1 serves all of
    ``l_ds``; R carries d at the far end of its chain and sweeps per d.
    """
    vabs, off, toep = lat.vabs, lat.off, lat.toep
    wsq = lat.weight(n * n - lat.j ** 2, (n, -n))
    gs = _sweep(lat.mask.astype(float), lambda g: toep(wsq * g), p_max) if l_ds else []
    us = {d: vabs[(d - lat.j) + off] * wsq for d in l_ds}
    ls = {d: [float(u @ g) for g in gs] for d, u in us.items()}
    ys = {d: _sweep(vabs[(lat.j - d) + off] * wsq, lambda y: wsq * toep(y), p_max) for d in r_ds}
    return ls, {d: [float(y.sum()) for y in y_d] for d, y_d in ys.items()}


def l_sum(vabs_src, p: int, d: int, n: int, cutoff: int | None = None,
          indices=None, check_tail: bool = True) -> float:
    """Truncated chain sum L(p, d) in transfer form, on the lattice of
    ``vabs_src``: step ``r.step`` of a majorant, 2 for a FourierPotential.

    ``indices`` overrides the default lattice (then no tail check runs).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return _truncated(lambda lat: _chain_orders(lat, n, p, (d,))[0][d], f"L({p},{d})",
                      n, cutoff, getattr(vabs_src, "step", 2), indices, check_tail,
                      vabs_src=vabs_src, reach=abs(d))


def r_sum(vabs_src, p: int, d: int, n: int, cutoff: int | None = None,
          indices=None, check_tail: bool = True) -> float:
    """Truncated chain sum R(p, d); equals L(p, -d) on a symmetric lattice."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _truncated(lambda lat: _chain_orders(lat, n, p, (), (d,))[1][d], f"R({p},{d})",
                      n, cutoff, getattr(vabs_src, "step", 2), indices, check_tail,
                      vabs_src=vabs_src, reach=abs(d))


# ---------------------------------------------------------------------------
# majorant chain sums
# ---------------------------------------------------------------------------

def _sigma_orders(lat: _Lattice, n: int, s_max: int) -> list[float]:
    """sigma(n, s) for s = 1..s_max, off +-n."""
    a, hank = lat.rtab[np.abs(n + lat.j)], lat.hank
    wminus, wplus, keep = (lat.weight(x, (n, -n)) for x in (n - lat.j, n + lat.j, 1))
    iterates = _sweep(wminus, lambda v: wminus * hank(v) + keep * hank(wplus * v), s_max)
    return [float(a @ v) for v in iterates]


def sigma(r: MajorantSeq, n: int, s: int, cutoff: int | None = None,
          indices=None, check_tail: bool = True) -> float:
    """Truncated bracketed majorant chain sigma(n, s), on the lattice of step ``r.step``."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return _truncated(lambda lat: _sigma_orders(lat, n, s), f"sigma(n,{s})",
                      n, cutoff, r.step, indices, check_tail, r=r, reach=abs(n))


def _front_dots(lat: _Lattice, ms: np.ndarray, w: np.ndarray, vecs: list) -> list:
    """[F @ v for v in vecs] for the front F[m, k] = r(|m + j_k|) w_k over ``ms``.

    F is built 4 rows at a time, never as a len(ms) x lattice table; the
    last block holds 2 to 5 rows (1 only for a single m).  The blocks keep
    the row groups of OpenBLAS's matrix-vector kernel, 4 rows and then one
    at a time, where a lone row would go to a dot product instead: every
    value is bit for bit the product with the whole F.
    """
    out = [np.empty(len(ms)) for _ in vecs]
    cuts = [0, *range(4, len(ms) - 1, 4), len(ms)]
    for a, b in zip(cuts, cuts[1:]):
        F = lat.rtab[np.abs(ms[a:b, None] + lat.j)] * w
        for o, v in zip(out, vecs):
            o[a:b] = F @ v
    return out


def _sigma1_orders(lat: _Lattice, n: int, s_max: int, ms: np.ndarray) -> list:
    """sigma1(n, s; m) over ms for s = 1..s_max, off n."""
    hank, wminus = lat.hank, lat.weight(n - lat.j, (n,))
    return _front_dots(lat, ms, wminus,
                       _sweep(lat.mask.astype(float), lambda g: hank(wminus * g), s_max))


def sigma1(r: MajorantSeq, n: int, s: int, m: int, cutoff: int | None = None,
           indices=None, check_tail: bool = True) -> float:
    """Truncated one-sided majorant chain sigma1(n, s; m) (excludes j = n only)."""
    return float(sigma1_profile(r, n, s, [m], cutoff, indices, check_tail)[0])


def sigma1_profile(r: MajorantSeq, n: int, s: int, m_values, cutoff: int | None = None,
                   indices=None, check_tail: bool = True) -> np.ndarray:
    """sigma1(n, s; m) for several m at once (one transfer sweep)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    ms = np.asarray(list(m_values))
    reach = abs(n) + int(np.abs(ms).max(initial=0))
    return _truncated(lambda lat: _sigma1_orders(lat, n, s, ms), f"sigma1(n,{s};m)",
                      n, cutoff, r.step, indices, check_tail, r=r, reach=reach)


def _sigma2_orders(lat: _Lattice, n: int, s_max: int, ms: np.ndarray) -> list:
    """sigma2(n, s; m) over ms for s = 2..s_max, off +-n."""
    keep, wplus, wsq = (lat.weight(x, (n, -n)) for x in (1, n + lat.j, n * n - lat.j ** 2))
    return _front_dots(lat, ms, keep,
                       _sweep(lat.hank(wsq), lambda z: lat.hank(wplus * z), s_max - 1))


def sigma2(r: MajorantSeq, n: int, s: int, m: int, cutoff: int | None = None,
           indices=None, check_tail: bool = True) -> float:
    """Truncated mixed majorant chain sigma2(n, s; m) (s >= 2, excludes +-n)."""
    return float(sigma2_profile(r, n, s, [m], cutoff, indices, check_tail)[0])


def sigma2_profile(r: MajorantSeq, n: int, s: int, m_values, cutoff: int | None = None,
                   indices=None, check_tail: bool = True) -> np.ndarray:
    """sigma2(n, s; m) for several m at once (one transfer sweep)."""
    if s < 2:
        raise ValueError("s must be >= 2")
    ms = np.asarray(list(m_values))
    reach = abs(n) + int(np.abs(ms).max(initial=0))
    return _truncated(lambda lat: _sigma2_orders(lat, n, s, ms), f"sigma2(n,{s};m)",
                      n, cutoff, r.step, indices, check_tail, r=r, reach=reach)


def _sigma_tilde_pieces(lat: _Lattice, n: int, s_max: int) -> dict[int, list[float]]:
    """{s: pieces} for s = 2..s_max, one per sign vector in ``itertools.product`` order.

    delta_v = -1 takes the 1/|n-j_v| term of bracket v, +1 its 1/|n+j_{v+1}|.
    Vectors act last entry first, so each vector of order s is its suffix's
    vector of order s - 1 after one more transfer: the orders form one tree,
    14 transfers for s_max = 4 against 34 one vector at a time.
    """
    a, hank = lat.rtab[np.abs(n + lat.j)], lat.hank
    wminus, wplus, keep = (lat.weight(x, (n, -n)) for x in (n - lat.j, n + lat.j, 1))
    level, pieces = {(): wminus}, {}
    for s in range(2, s_max + 1):
        level = {ds: wminus * hank(level[ds[1:]]) if ds[0] == -1
                 else keep * hank(wplus * level[ds[1:]])
                 for ds in itertools.product((-1, 1), repeat=s - 1)}
        pieces[s] = [float(a @ v) for v in level.values()]
    return pieces


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
    V = coupling(pot, BoundaryCondition.PER_PLUS, idx[:, None], idx[None, :])
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
    "harmonic_weight_sum",      # sum_{j != +-n} 1/|n^2-j^2| < 2 ln(6n)/n; the terms
                                # (1/2n)(1/(|j|-n) - 1/(|j|+n)) for |j| > n telescope
    "first_order_total",        # first-order mass <= 4||r||/sqrt(n) + 4 E_n(r)
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


_S_MAX = 4  # highest order of the sigma sums in ``lemma_suite``
_P_MAX = 4  # highest order of the L/R chain sums in ``lemma_suite``


def _default_m_samples(n: int, step: int) -> np.ndarray:
    offs = step * np.array([0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8, 16, -16, 32, -32])
    ms = set()
    for base in (n, -n):
        for o in offs:
            ms.add(int(base + o))
    ms.add(n % step if step == 2 else 0)  # a smallest-|m| representative
    return np.array(sorted(ms))


def _harmonic_weight_sum(n: int, cutoff: int, step: int) -> float:
    """sum 1/|n^2 - j^2| over ``lattice(n, cutoff, step, (n, -n))`` for any
    cutoff >= n, in O(n) time and memory.

    The terms with |j| < n are summed directly.  The rest are
    j = +-(n + s k), 1 <= k <= K = (cutoff - n) // s with s = ``step``, where

        1/(j^2 - n^2) = (1/2n) (1/(s k) - 1/(2n + s k)),

    so with m = 2n/s (an integer, as s divides 2) both signs together give

        (1/(n s)) sum_{k=1}^{K} (1/k - 1/(k + m))
            = (H_m - sum_{k=K+1}^{K+m} 1/k) / (n s),

    H_m the m-th harmonic number.  One ``math.fsum`` adds the O(n) terms.
    """
    ns, m, far = n * step, 2 * n // step, (cutoff - n) // step
    terms = [1.0 / (n * n - j * j) for j in range(-n + step, n, step)]
    terms += [1.0 / (ns * k) for k in range(1, m + 1)]
    terms += [-1.0 / (ns * k) for k in range(far + 1, far + m + 1)]
    return math.fsum(terms)


def default_cutoff(n: int) -> int:
    """Index cutoff of ``lemma_suite`` at level n when none is given."""
    return max(8 * n, 4096)


def lemma_suite(r: MajorantSeq, n: int, cutoff: int | None = None, *,
                potential: FourierPotential | SinePotential | None = None,
                rho_constant: float = 8.0) -> SeriesReport:
    """Evaluate the inequality suite for one majorant and level: every verdict.

    All left-hand sides are truncated sums (which only under-count), so a
    pass is meaningful at truncation; tail estimates are recorded per
    quantity instead of raising, and the last check, ``cutoff_converged``,
    holds the largest against TAIL_RTOL.  The sup over the chain parameter
    m runs over a deterministic sample set around +-n plus far probes;
    this under-counts right-hand-side sups as well, which keeps every
    comparison conservative.  Comparisons allow a relative 1e-12 slack:
    for majorants with symmetric |w| several inequalities are exact
    equalities, where rounding alone decides the sign.  The sums run on
    the majorant's lattice, step ``r.step``.

    With a ``potential`` the suite adds ``first_order_total`` (the
    first-order mass of the module docstring against ``r``) and,
    on the step-2 lattice, the L/R chain checks.  On the step-1 (Dirichlet)
    lattice L and R need a Toeplitz-plus-Hankel majorant of the sine
    coupling, so ``chain_le_sigma`` and ``reflection_identity`` are listed
    as failed and not run: a check that never ran must not pass by omission.
    """
    step = r.step
    if n < 4:
        raise ValueError("the single-step bounds need n >= 4")
    if cutoff is None:
        cutoff = default_cutoff(n)
    ms = _default_m_samples(n, step)

    norm = r.norm
    rt = rho_tilde(r, n)
    rho, eps, kappa, bound64, valid = kappa_for(r, n, rho_constant)
    logw = 2.0 * math.log(6.0 * n) / n
    m_const = 4.0 * (1.0 + norm)

    tails: dict[str, float] = {}

    lats = list(_lattices(n, cutoff, step, r=r, vabs_src=potential if step == 2 else None,
                          reach=n + int(np.abs(ms).max())))

    def swept(label, first, orders_on):
        """Every order on the full lattice, with tails against the half-cutoff one."""
        full, half = (orders_on(lat) for lat in lats)
        for s, (f, h) in enumerate(zip(full, half), first):
            tails[label.format(s)] = _tail(f, h)
        return dict(enumerate(full, first))

    sig = swept("sigma[s={}]", 1, lambda lat: _sigma_orders(lat, n, _S_MAX))
    s1 = swept("sigma1[s={}]", 1, lambda lat: _sigma1_orders(lat, n, _S_MAX + 2, ms))
    s2 = swept("sigma2[s={}]", 2, lambda lat: _sigma2_orders(lat, n, _S_MAX, ms))

    checks: list[CheckResult] = []

    def add(name, lhs, rhs, note=""):
        ok = bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))
        checks.append(CheckResult(name, ok, float(lhs), float(rhs), note))

    near = np.abs(ms - n) <= n / 2
    if near.any():
        add("sigma1_single_near", s1[1][near].max(), rt, "|m-n| <= n/2")
    add("sigma1_single_global", s1[1].max(), norm)

    for p in range(1, _S_MAX // 2 + 1):
        add("sigma1_even_power", s1[2 * p].max(), (2.0 * norm * rt) ** p, f"s=2p={2 * p}")
        add("sigma1_odd_power", s1[2 * p + 1].max(), norm * (2.0 * norm * rt) ** p,
            f"s=2p+1={2 * p + 1}")

    for s in range(1, min(_S_MAX, 2) + 1):
        lhs = s1[s + 2] - s1[s] * (2.0 * norm * rt)
        add("sigma1_two_step_recursion", lhs.max(), 0.0, f"s={s} -> s+2")

    add("sigma2_pair", s2[2].max(), norm * norm * logw)
    for s in range(3, _S_MAX + 1):
        add("sigma2_chain", s2[s].max(), norm * norm * logw * s1[s - 2].max(), f"s={s}")

    # over |j| <= max(cutoff, 1e5), in O(n) time and memory
    add("harmonic_weight_sum", _harmonic_weight_sum(n, max(cutoff, 10 ** 5), step), logw)

    pos_n = int(np.nonzero(ms == n)[0][0])
    add("sigma_one_equals_profile", abs(sig[1] - float(s1[1][pos_n])),
        1e-12 * max(1.0, sig[1]), "identity")

    for s in range(1, _S_MAX + 1):
        add("sigma_le_eps_power", sig[s], eps ** s, f"s={s}")

    # signed-kernel split: exact resummation and the per-piece bound
    for s, pieces in _sigma_tilde_pieces(lats[0], n, _S_MAX).items():
        add("sigma_splits_exact", abs(sum(pieces) - sig[s]),
            1e-10 * max(1.0, sig[s]), f"s={s}")
        add("signed_kernel_bound", max(pieces), (eps / 2.0) ** s, f"s={s}")

    for p in range(1, _S_MAX // 2 + 1):
        add("sigma1_even_half_eps", s1[2 * p].max(), (eps / 2.0) ** (2 * p), f"s={2 * p}")
        add("sigma1_odd_half_eps", s1[2 * p + 1].max(), norm * (eps / 2.0) ** (2 * p),
            f"s={2 * p + 1}")
    for s in range(2, _S_MAX + 1):
        add("sigma2_half_eps", s2[s].max(), (eps / 2.0) ** (s + 1) / m_const, f"s={s}")

    l_table: dict[str, float] = {}
    r_table: dict[str, float] = {}
    if potential is not None and step == 2:
        # L with tails against the half-cutoff lattice; R on the full one only
        pm = (n, -n)
        ls, rs = _chain_orders(lats[0], n, _P_MAX, pm, pm)
        half = _chain_orders(lats[1], n, _P_MAX, pm)[0]
        for d in pm:
            for p, (lv, hv, rv) in enumerate(zip(ls[d], half[d], rs[d]), 1):
                tails[f"L({p},{d:+d})"] = _tail(lv, hv)
                l_table[f"{p},{d:+d}"], r_table[f"{p},{d:+d}"] = lv, rv
        for p in range(1, _P_MAX + 1):
            for d in (n, -n):
                rv = r_table[f"{p},{d:+d}"]
                add("reflection_identity", abs(rv - l_table[f"{p},{-d:+d}"]),
                    1e-12 * max(1.0, rv), f"R({p},{d:+d}) = L({p},{-d:+d})")
        for s in range(1, min(_P_MAX, _S_MAX) + 1):
            for d in (n, -n):
                lv = l_table[f"{s},{d:+d}"]
                add("chain_le_sigma", lv, sig[s], f"L({s},{d:+d})")
                add("chain_le_eps_power", lv, eps ** s, f"L({s},{d:+d})")
    elif potential is not None:
        checks.extend(CheckResult(name, False, math.nan, math.nan,
                                  "not run: Dirichlet L/R needs a Toeplitz+Hankel majorant")
                      for name in ("chain_le_sigma", "reflection_identity"))
    if potential is not None:
        # the first-order residues on the +-n columns and the +-n rows
        bc = BoundaryCondition.PER_PLUS if step == 2 else BoundaryCondition.DIRICHLET
        ks, levels = lattice(n, cutoff, step), bc.level_indices(n)
        ks = (ks if step == 2 else ks[ks >= 1])[:, None]
        mass = sum(float(np.abs(first_order_residue(potential, bc, n, *km)).sum())
                   for km in ((ks, levels), (levels, ks)))
        add("first_order_total", mass, 4.0 * norm / math.sqrt(n) + 4.0 * r.tail_energy(n))
    max_tail = max(tails.values(), default=0.0)
    checks.append(CheckResult("cutoff_converged", max_tail <= TAIL_RTOL, max_tail, TAIL_RTOL,
                              "max relative tail estimate"))

    report = SeriesReport(
        inputs={
            "n": n, "cutoff": cutoff, "step": step, "rho_constant": rho_constant,
            "r_norm": norm, "r_max_index": r.max_index, "m_const": m_const,
            "s_max": _S_MAX, "p_max": _P_MAX,
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

def report_to_json(report: SeriesReport) -> dict:
    """The report as a JSON-ready dict (the CLI writes it with its config)."""
    return {
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
