import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hillproj as hp
from hillproj import bounds
from hillproj import potential as pot

PI = math.pi
BC = hp.BoundaryCondition


def zero_majorant():
    return pot.majorant(pot.zero())


def delta_majorant(mass=1.0, top=512):
    return pot.majorant(pot.delta_comb(mass, max_index=top))


class TestRates:
    def test_rho_tilde_zero(self):
        assert bounds.rho_tilde(zero_majorant(), 10) == 0.0

    def test_rho_tilde_second_term_halves(self):
        r = delta_majorant()
        n = 16
        # the tail part stays fixed once n exceeds the support, so compare
        # with the support subtracted
        t1 = bounds.rho_tilde(r, n) - r.tail_energy(n)
        t2 = bounds.rho_tilde(r, 4 * n) - r.tail_energy(4 * n)
        assert np.isclose(t1, 2 * t2)

    def test_rho_tilde_delta_oracle(self):
        r = delta_majorant(1.0, top=512)
        n = 100
        tail = math.sqrt(sum(2 * (1 / (PI * m)) ** 2 for m in range(100, 513, 2)))
        assert np.isclose(bounds.rho_tilde(r, n), tail + 2 * r.norm / 10.0, atol=1e-12)

    def test_rho_n_zero_and_linear_in_constant(self):
        assert bounds.rho_n(zero_majorant(), 16) == 0.0
        r = delta_majorant()
        assert np.isclose(bounds.rho_n(r, 16, 16.0), 2 * bounds.rho_n(r, 16, 8.0))

    def test_rho_n_mathieu_frozen(self):
        # ||r|| = 1/sqrt(2), support at 2 < sqrt(64): rho = C (||r||/8 + 0)
        r = pot.majorant(pot.mathieu(1.0))
        assert np.isclose(bounds.rho_n(r, 64, 1.0), (1 / math.sqrt(2)) / 8.0)

    def test_eps_zero_majorant_formula(self):
        for n in (2, 10, 400):
            expect = 4.0 * (2 * math.log(6 * n) / n) ** 0.25
            assert np.isclose(bounds.eps_n(zero_majorant(), n), expect)

    def test_eps_strictly_decreasing(self):
        vals = [bounds.eps_n(zero_majorant(), n) for n in range(2, 401)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eps_delta_oracle(self):
        r = delta_majorant(1.0, top=2048)
        n = 400
        expect = 4 * (1 + r.norm) * ((2 * math.log(6 * n) / n) ** 0.25
                                     + math.sqrt(bounds.rho_tilde(r, n)))
        assert np.isclose(bounds.eps_n(r, n), expect)

    @pytest.mark.parametrize("rho,eps,expect", [
        (0.0, 0.0, (0.0, 0.0, True)),
        (0.3, 0.1, (0.3, 19.2, False)),
        (0.1, 0.2, (0.2, 12.8, True)),
    ])
    def test_kappa_cases(self, rho, eps, expect, monkeypatch):
        # kappa_for on given rates: the eps floor keeps real majorants from
        # ever reaching kappa < 1/4 at desk scale
        monkeypatch.setattr(bounds, "rho_n", lambda r, n, c: rho)
        monkeypatch.setattr(bounds, "eps_n", lambda r, n: eps)
        got = bounds.kappa_for(zero_majorant(), 10)
        assert got == (rho, eps, *expect)
        _, _, kappa, bound64, valid = got
        assert kappa == max(rho, eps) and bound64 == 64 * kappa and valid == (kappa < 0.25)


# -- enumeration oracles ------------------------------------------------------

def enum_L(vabs, p, d, n, idx):
    tot = 0.0
    for combo in itertools.product(idx, repeat=p):
        prod, prev = 1.0, d
        for i in combo:
            prod *= vabs(prev - i) / abs(n * n - i * i)
            prev = i
        tot += prod
    return tot


def enum_R(vabs, p, d, n, idx):
    tot = 0.0
    for combo in itertools.product(idx, repeat=p):
        prod = 1.0
        for t in range(p - 1):
            prod *= vabs(combo[t] - combo[t + 1]) / abs(n * n - combo[t] ** 2)
        prod *= vabs(combo[-1] - d) / abs(n * n - combo[-1] ** 2)
        tot += prod
    return tot


def enum_sigma(r, n, s, idx):
    tot = 0.0
    for combo in itertools.product(idx, repeat=s):
        prod = r.get(n + combo[0])
        for t in range(s - 1):
            prod *= (1 / abs(n - combo[t]) + 1 / abs(n + combo[t + 1])) \
                * r.get(combo[t] + combo[t + 1])
        prod /= abs(n - combo[-1])
        tot += prod
    return tot


def enum_sigma1(r, n, s, m, idx):
    tot = 0.0
    for combo in itertools.product(idx, repeat=s):
        prod = r.get(m + combo[0]) / abs(n - combo[0])
        for t in range(s - 1):
            prod *= r.get(combo[t] + combo[t + 1]) / abs(n - combo[t + 1])
        tot += prod
    return tot


def enum_sigma2(r, n, s, m, idx):
    tot = 0.0
    for combo in itertools.product(idx, repeat=s):
        prod = r.get(m + combo[0])
        for t in range(s - 2):
            prod *= r.get(combo[t] + combo[t + 1]) / abs(n + combo[t + 1])
        prod *= r.get(combo[-2] + combo[-1]) / abs(n * n - combo[-1] ** 2)
        tot += prod
    return tot


TINY_IDX = (-8, -6, -2, 0, 2, 6, 8)        # excludes +-4
TINY_IDX1 = (-8, -6, -4, -2, 0, 2, 6, 8)   # excludes +4 only


class TestChainSums:
    def test_zero_interaction(self):
        r0 = zero_majorant()
        for p in (1, 2, 3):
            assert bounds.l_sum(r0, p, 4, 4, indices=np.array(TINY_IDX)) == 0.0
            assert bounds.r_sum(r0, p, 4, 4, indices=np.array(TINY_IDX)) == 0.0

    def test_transfer_equals_enumeration(self):
        p = pot.mathieu(1.0)
        vabs = lambda d: abs(d * p.w.get(d))
        n, idx = 4, np.array(TINY_IDX)
        for pp in (1, 2, 3):
            for d in (n, -n):
                lv = bounds.l_sum(p, pp, d, n, indices=idx)
                assert abs(lv - enum_L(vabs, pp, d, n, idx)) <= 1e-12 * max(1, lv)
                rv = bounds.r_sum(p, pp, d, n, indices=idx)
                assert abs(rv - enum_R(vabs, pp, d, n, idx)) <= 1e-12 * max(1, rv)

    def test_p1_direct_loop_on_default_lattice(self):
        p = pot.delta_comb(0.7, max_index=600)
        n, cutoff = 8, 64
        lv = bounds.l_sum(p, 1, n, n, cutoff=cutoff, check_tail=False)
        direct = sum(abs((n - i) * p.w.get(n - i)) / abs(n * n - i * i)
                     for i in range(-cutoff, cutoff + 1) if i % 2 == 0 and abs(i) != n)
        assert abs(lv - direct) <= 1e-12 * max(1, lv)

    def test_reflection_identity_default_lattice(self):
        p = pot.delta_comb(0.5, max_index=600)
        n = 16
        for pp in (1, 2, 3, 4):
            lv = bounds.l_sum(p, pp, -n, n, cutoff=8 * n, check_tail=False)
            rv = bounds.r_sum(p, pp, n, n, cutoff=8 * n, check_tail=False)
            assert abs(rv - lv) <= 1e-12 * max(1.0, lv)

    def test_symmetric_interaction_R_equals_L(self):
        p = pot.mathieu(1.0)  # |V| even
        idx = np.array(TINY_IDX)
        for pp in (1, 2, 3):
            lv = bounds.l_sum(p, pp, 4, 4, indices=idx)
            rv = bounds.r_sum(p, pp, 4, 4, indices=idx)
            assert abs(lv - rv) <= 1e-12 * max(1, lv)

    def test_homogeneity_in_majorant(self):
        r1 = delta_majorant(0.5, top=64)
        r2 = delta_majorant(1.0, top=64)
        idx = np.array(TINY_IDX)
        for pp in (1, 2, 3):
            a = bounds.l_sum(r1, pp, 4, 4, indices=idx)
            b = bounds.l_sum(r2, pp, 4, 4, indices=idx)
            assert np.isclose(b, (2.0 ** pp) * a)

    def test_cutoff_guard_trips_for_slow_decay(self):
        r = pot.MajorantSeq({m: m ** -0.55 for m in range(2, 2049, 2)}, step=2)
        with pytest.raises(bounds.CutoffTooSmall):
            bounds.sigma1(r, 8, 1, 8, cutoff=64)
        val = bounds.sigma1(r, 8, 1, 8, cutoff=64, check_tail=False)
        assert val > 0

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            bounds.sigma(delta_majorant(), 16, 1, cutoff=64)


class TestSigmaFamily:
    def test_zero_majorant(self):
        r0 = zero_majorant()
        assert bounds.sigma(r0, 4, 2, indices=np.array(TINY_IDX)) == 0.0
        assert bounds.sigma1(r0, 4, 2, 4, indices=np.array(TINY_IDX1)) == 0.0

    def test_transfer_equals_enumeration(self):
        r = delta_majorant(1.0, top=64)
        n = 4
        idx, idx1 = np.array(TINY_IDX), np.array(TINY_IDX1)
        for s in (1, 2, 3):
            sv = bounds.sigma(r, n, s, indices=idx)
            assert abs(sv - enum_sigma(r, n, s, idx)) <= 1e-12 * max(1, sv)
            s1 = bounds.sigma1(r, n, s, 6, indices=idx1)
            assert abs(s1 - enum_sigma1(r, n, s, 6, idx1)) <= 1e-12 * max(1, s1)
        for s in (2, 3):
            s2 = bounds.sigma2(r, n, s, 6, indices=idx)
            assert abs(s2 - enum_sigma2(r, n, s, 6, idx)) <= 1e-12 * max(1, s2)

    def test_larger_enumeration_window(self):
        r = delta_majorant(0.5, top=128)
        n = 4
        idx = np.array([j for j in range(-20, 21, 2) if abs(j) != n])
        s2 = bounds.sigma2(r, n, 2, 6, indices=idx)
        assert abs(s2 - enum_sigma2(r, n, 2, 6, idx)) <= 1e-12 * max(1, s2)

    def test_sigma_one_equals_sigma1_at_n(self):
        r = delta_majorant(1.0)
        for n in (8, 16, 50):
            a = bounds.sigma(r, n, 1, cutoff=8 * n, check_tail=False)
            b = bounds.sigma1(r, n, 1, n, cutoff=8 * n, check_tail=False)
            assert abs(a - b) <= 1e-12 * max(1, a)

    def test_sigma_tilde_resums_to_sigma(self):
        # the tree's pieces are the vector-by-vector loop's, bit for bit and
        # in product order, and they resum to sigma
        r, n, pm = delta_majorant(1.0, top=64), 4, (4, -4)
        idx = np.array(TINY_IDX)
        lat = bounds._Lattice(idx, r, reach=n)
        tree = bounds._sigma_tilde_pieces(lat, n, 4)
        assert sorted(tree) == [2, 3, 4]
        hank, keep = lat.hank, lat.weight(1, pm)
        wminus, wplus = lat.weight(n - lat.j, pm), lat.weight(n + lat.j, pm)
        for s in (2, 3, 4):
            loop = []
            for deltas in itertools.product((-1, 1), repeat=s - 1):
                v = wminus
                for dlt in reversed(deltas):
                    v = wminus * hank(v) if dlt == -1 else keep * hank(wplus * v)
                loop.append(float(lat.rtab[np.abs(n + lat.j)] @ v))
            assert tree[s] == loop
            sv = bounds.sigma(r, n, s, indices=idx)
            assert abs(sum(tree[s]) - sv) <= 1e-12 * max(1, sv)

    @given(st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_sigma_homogeneity(self, scale):
        base = {m: 1.0 / m for m in range(2, 33, 2)}
        r1 = pot.MajorantSeq(base, step=2)
        r2 = pot.MajorantSeq({m: scale * v for m, v in base.items()}, step=2)
        idx = np.array(TINY_IDX)
        for s in (1, 2, 3):
            a = bounds.sigma(r1, 4, s, indices=idx)
            b = bounds.sigma(r2, 4, s, indices=idx)
            assert np.isclose(b, scale ** s * a, rtol=1e-10)


# -- dense matrix-power reference ----------------------------------------------
# Gathers every chain operator as a dense index x index table and takes
# matrix powers: the direct form of the transfer sweeps, small sets only.

def dense_tables(r, vabs_src, n, idx):
    top = int(np.abs(idx).max()) * 2 + 2 * n + 64
    rtab = r.table(top)
    if isinstance(vabs_src, pot.FourierPotential):
        vtab = np.abs(vabs_src.v_table(top))
    else:
        d = np.arange(-top, top + 1)
        vtab = np.abs(d) * vabs_src.table(top)[np.abs(d)]
    return (lambda m: rtab[np.abs(m)]), (lambda d: vtab[d + top])


def dense_L(vabs, p, d, n, idx):
    wsq = 1.0 / np.abs(n * n - idx.astype(float) ** 2)
    T = vabs(idx[:, None] - idx[None, :]) * wsq[None, :]
    return (vabs(d - idx) * wsq) @ np.linalg.matrix_power(T, p - 1) @ np.ones(len(idx))


def dense_R(vabs, p, d, n, idx):
    wsq = 1.0 / np.abs(n * n - idx.astype(float) ** 2)
    T = wsq[:, None] * vabs(idx[:, None] - idx[None, :])
    return np.ones(len(idx)) @ np.linalg.matrix_power(T, p - 1) @ (vabs(idx - d) * wsq)


def dense_sigma(rr, n, s, idx):
    wm, wp = 1.0 / np.abs(n - idx), 1.0 / np.abs(n + idx)
    M = (wm[:, None] + wp[None, :]) * rr(idx[:, None] + idx[None, :])
    return rr(n + idx) @ np.linalg.matrix_power(M, s - 1) @ wm


def dense_sigma1(rr, n, s, ms, idx):
    wm = 1.0 / np.abs(n - idx)
    T = rr(idx[:, None] + idx[None, :]) * wm[None, :]
    front = rr(ms[:, None] + idx[None, :]) * wm[None, :]
    return front @ np.linalg.matrix_power(T, s - 1) @ np.ones(len(idx))


def dense_sigma2(rr, n, s, ms, idx):
    wp = 1.0 / np.abs(n + idx)
    wsq = 1.0 / np.abs(n * n - idx.astype(float) ** 2)
    Rm = rr(idx[:, None] + idx[None, :])
    front = rr(ms[:, None] + idx[None, :])
    return front @ np.linalg.matrix_power(Rm * wp[None, :], s - 2) @ (Rm @ wsq)


def assert_rel(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def step_case(step):
    """(majorant, L/R source) on the lattice of the given step."""
    if step == 2:
        return delta_majorant(1.0, top=512), pot.delta_comb(0.5, max_index=512)
    r1 = pot.majorant_dir(pot.per_to_dir(pot.delta_comb(1.0, max_index=512), 256))
    return r1, r1


class TestDenseReference:
    N = 6

    def check_public(self, step, idx, idx1, where, where1):
        """Public sums on idx (+-n excluded) and idx1 (n excluded), which
        ``where`` and ``where1`` select, against the dense reference."""
        n = self.N
        r, src = step_case(step)
        rr, vabs = dense_tables(r, src, n, idx1)
        ms = np.array([n, n + step, -n, 0, 3 * step])
        for p in (1, 2, 3, 4):
            for d in (n, -n):
                assert_rel(bounds.l_sum(src, p, d, n, **where), dense_L(vabs, p, d, n, idx))
                assert_rel(bounds.r_sum(src, p, d, n, **where), dense_R(vabs, p, d, n, idx))
            assert_rel(bounds.sigma(r, n, p, **where), dense_sigma(rr, n, p, idx))
            assert_rel(bounds.sigma1_profile(r, n, p, ms, **where1),
                       dense_sigma1(rr, n, p, ms, idx1))
            if p >= 2:
                assert_rel(bounds.sigma2_profile(r, n, p, ms, **where),
                           dense_sigma2(rr, n, p, ms, idx))

    @pytest.mark.parametrize("step", [1, 2])
    def test_public_sums_on_default_lattice(self, step):
        n = self.N
        where = dict(cutoff=8 * n, check_tail=False)
        self.check_public(step, bounds.lattice(n, 8 * n, step, (n, -n)),
                          bounds.lattice(n, 8 * n, step, (n,)), where, where)

    @pytest.mark.parametrize("step", [1, 2])
    def test_public_sums_on_gapped_indices(self, step):
        n = self.N
        gaps = {n, -n, -10, 12, 14, 3, 5}
        idx = np.array([j for j in range(-30, 31, step) if j not in gaps])
        idx1 = np.array(sorted(set(idx) | {-n}))
        self.check_public(step, idx, idx1, dict(indices=idx), dict(indices=idx1))

    def test_r_is_its_own_sweep_off_the_symmetric_lattice(self):
        # on gapped, asymmetric indices with an uneven |V| (the sawtooth),
        # R(p, d) and L(p, -d) differ by a few percent, so an R read off
        # the reflected L would miss the dense reference
        n, src = self.N, pot.sawtooth(1.0, max_index=512)
        idx = np.array([j for j in range(-30, 31, 2) if j not in {n, -n, -10, 12, 14}])
        _, vabs = dense_tables(pot.majorant(src), src, n, idx)
        for p in (1, 2, 3, 4):
            for d in (n, -n):
                rv = bounds.r_sum(src, p, d, n, indices=idx)
                assert_rel(rv, dense_R(vabs, p, d, n, idx))
                assert abs(rv - bounds.l_sum(src, p, -d, n, indices=idx)) > 0.01 * rv

    @pytest.mark.parametrize("step", [1, 2])
    def test_lemma_suite_tables(self, step):
        n, cutoff = self.N, 64
        r, src = step_case(step)
        potential = src if step == 2 else None
        rep = bounds.lemma_suite(r, n, cutoff, potential=potential)
        idx = bounds.lattice(n, cutoff, step, (n, -n))
        idx1 = bounds.lattice(n, cutoff, step, (n,))
        ms = np.array(rep.inputs["m_samples"])
        rr, vabs = dense_tables(r, src, n, idx1)
        for s, val in rep.sigma_table.items():
            assert_rel(val, dense_sigma(rr, n, int(s), idx))
        assert sorted(map(int, rep.sigma1_sup)) == list(range(1, 7))
        for s, val in rep.sigma1_sup.items():
            assert_rel(val, dense_sigma1(rr, n, int(s), ms, idx1).max())
        assert sorted(map(int, rep.sigma2_sup)) == [2, 3, 4]
        for s, val in rep.sigma2_sup.items():
            assert_rel(val, dense_sigma2(rr, n, int(s), ms, idx).max())
        assert len(rep.l_table) == (8 if potential else 0) == len(rep.r_table)
        for key, val in rep.l_table.items():
            p, d = map(int, key.split(","))
            assert_rel(val, dense_L(vabs, p, d, n, idx))
            assert_rel(rep.r_table[key], dense_R(vabs, p, d, n, idx))

    def test_sums_read_the_step_of_their_input(self):
        # the Dirichlet sawtooth has only odd sine data: on the even lattice
        # its sigma would be 0; on its own step-1 lattice it is lemma_suite's
        r = pot.majorant_dir(pot.per_to_dir(pot.sawtooth(1.0), 256))
        assert r.step == 1
        got = bounds.sigma(r, 8, 1, cutoff=64, check_tail=False)
        assert got > 0.09
        assert got == bounds.lemma_suite(r, 8, 64).sigma_table["1"]


# -- the transfer kernel ---------------------------------------------------------

def filtered_lattice(n, cutoff, step, exclude):
    """``bounds.lattice`` as a filter on the full range, its reference."""
    j = np.arange(-cutoff, cutoff + 1)
    j = j[(j - n) % step == 0]
    return j[[int(i) not in exclude for i in j]]


class TestKernel:
    @pytest.mark.parametrize("step", [1, 2])
    def test_lattice_is_the_filtered_range(self, step):
        for n in (7, 8):
            for cutoff in (64, 65, 1000):
                for exclude in ((), (n,), (n, -n), (n, -n, 3, cutoff + 2)):
                    got = bounds.lattice(n, cutoff, step, exclude)
                    assert np.array_equal(got, filtered_lattice(n, cutoff, step, exclude))
        with pytest.raises(ValueError):
            bounds.lattice(8, 64, 3)

    def test_fft_length_is_the_smallest_5_smooth(self):
        smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(14) for b in range(9)
                        for c in range(6) if 2 ** a * 3 ** b * 5 ** c <= 8192)
        for n in range(1, 5001):
            m = bounds._fft_length(n)
            assert m == smooth[np.searchsorted(smooth, n)]
            assert n <= m <= 1 << (n - 1).bit_length()
        assert bounds._fft_length(2 * 4097 - 1) == 8640 and bounds._fft_length(4097) == 4320

    @pytest.mark.parametrize("size", [15, 16, 17, 127, 128, 129, 1023, 1024, 1025])
    @pytest.mark.parametrize("hankel", [True, False])
    def test_transfer_is_the_masked_matvec(self, size, hankel):
        # sizes 2^k - 1, 2^k and 2^k + 1 sit on both sides of the padding edge
        rng = np.random.default_rng(size)
        idx = np.delete(-3 + 2 * np.arange(size), [1, size // 2])   # excluded, ends kept
        lat = bounds._Lattice(idx)
        assert len(lat.mask) == size and lat.mask.sum() == size - 2
        kernel, x = rng.random(2 * size - 1), rng.random(size)
        k, l = np.indices((size, size))
        dense = kernel[k + l] if hankel else kernel[k - l + size - 1]
        ref = np.where(lat.mask, dense @ np.where(lat.mask, x, 0.0), 0.0)
        np.testing.assert_allclose(lat.transfer(kernel, hankel)(x), ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("step", [1, 2])
    def test_one_l_sweep_serves_every_d(self, step):
        n = 6
        _, src = step_case(step)
        idx = np.array([j for j in range(-30, 31, step) if j not in {n, -n, -10, 12, 14, 3}])
        ds = (n, -n, 2 * step)
        lat = bounds._Lattice(idx, vabs_src=src, reach=n)
        ls, rs = bounds._chain_orders(lat, n, 4, ds, ds)
        for d in ds:
            one_l, none_r = bounds._chain_orders(lat, n, 4, l_ds=(d,))
            none_l, one_r = bounds._chain_orders(lat, n, 4, r_ds=(d,))
            assert none_r == {} == none_l
            np.testing.assert_allclose(ls[d], one_l[d], rtol=1e-14, atol=0)
            np.testing.assert_allclose(rs[d], one_r[d], rtol=1e-14, atol=0)

    def test_lemma_suite_fft_calls(self, monkeypatch):
        # one level of the bounds-delta workload: 2 lattices, 54 transfer
        # applies and 4 kernel spectra (Hankel and Toeplitz on each), on
        # the 4097-point lattice (5-smooth length 8640) and the half-cutoff
        # 2049-point one (4320)
        calls, builds = [], []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda a, n, _name=name, _real=real:
                                calls.append((_name, n)) or _real(a, n))
        init = bounds._Lattice.__init__
        monkeypatch.setattr(bounds._Lattice, "__init__",
                            lambda self, *a, **k: builds.append(len(a[0])) or init(self, *a, **k))
        p = pot.delta_comb(0.5, max_index=9000)
        rep = bounds.lemma_suite(pot.majorant(p), 8, potential=p)
        assert rep.inputs["cutoff"] == 4096
        assert builds == [4097, 2049]
        assert {c: calls.count(c) for c in set(calls)} == {
            ("rfft", 8640): 39, ("irfft", 8640): 37, ("rfft", 4320): 19, ("irfft", 4320): 17}

    def test_lattice_is_freed_without_the_cycle_collector(self):
        # the stored transfers must not refer back to their lattice, or
        # every lattice would wait for the cyclic collector
        r, src = step_case(2)
        gc.disable()
        try:
            lat = bounds._Lattice(bounds.lattice(6, 64, 2), r, src, 6)
            assert callable(lat.hank) and callable(lat.toep)
            ref = weakref.ref(lat)
            del lat
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("step", [1, 2])
    def test_each_sum_skips_its_own_indices(self, step):
        # an index set that also holds +-n (sigma1: n) gives the values of
        # the set without them, bit for bit
        n = 6
        r, src = step_case(step)
        ms = np.array([n, n + step, -n, 0, 3 * step])
        base = [j for j in range(-30, 31, step) if j not in {n, -n, -10, 12, 14, 3}]
        idx, idx_pm = np.array(base), np.array(sorted(base + [n, -n]))
        idx1, idx1_n = np.array(sorted(base + [-n])), np.array(sorted(base + [n, -n]))
        for p in (1, 2, 3, 4):
            for d in (n, -n):
                assert bounds.l_sum(src, p, d, n, indices=idx_pm) == bounds.l_sum(
                    src, p, d, n, indices=idx)
                assert bounds.r_sum(src, p, d, n, indices=idx_pm) == bounds.r_sum(
                    src, p, d, n, indices=idx)
            assert bounds.sigma(r, n, p, indices=idx_pm) == bounds.sigma(r, n, p, indices=idx)
            assert np.array_equal(bounds.sigma1_profile(r, n, p, ms, indices=idx1_n),
                                  bounds.sigma1_profile(r, n, p, ms, indices=idx1))
            if p >= 2:
                assert np.array_equal(bounds.sigma2_profile(r, n, p, ms, indices=idx_pm),
                                      bounds.sigma2_profile(r, n, p, ms, indices=idx))

    @pytest.mark.parametrize("step", [1, 2])
    def test_lemma_suite_tails_are_the_public_increments(self, step):
        # lemma_suite's tail estimates are the cutoff-halving increments of
        # the public sums, relative to the value (a profile: where largest)
        n, cutoff = 6, 96
        r, src = step_case(step)
        potential = src if step == 2 else None
        rep = bounds.lemma_suite(r, n, cutoff, potential=potential)
        ms = np.array(rep.inputs["m_samples"])

        def rel(total):
            full, half = (np.atleast_1d(total(c)) for c in (cutoff, cutoff // 2))
            k = int(np.argmax(np.abs(full - half)))
            return abs(full[k] - half[k]) / abs(full[k])

        expect = {}
        for s in range(1, 5):
            expect[f"sigma[s={s}]"] = rel(lambda c: bounds.sigma(r, n, s, c, check_tail=False))
        for s in range(1, 7):
            expect[f"sigma1[s={s}]"] = rel(
                lambda c: bounds.sigma1_profile(r, n, s, ms, c, check_tail=False))
        for s in range(2, 5):
            expect[f"sigma2[s={s}]"] = rel(
                lambda c: bounds.sigma2_profile(r, n, s, ms, c, check_tail=False))
        for p in range(1, 5 if potential else 1):
            for d in (n, -n):
                expect[f"L({p},{d:+d})"] = rel(
                    lambda c: bounds.l_sum(potential, p, d, n, c, check_tail=False))
        assert rep.tail_estimates == expect


    @pytest.mark.parametrize("n", [8, 48, 128])
    def test_front_blocks_are_the_whole_table(self, n):
        # the front table a block of rows at a time gives the products of the
        # whole len(ms) x lattice table bit for bit, for the m samples of
        # lemma_suite (25, 29 and 31 of them) and their first 1 to 9
        r = delta_majorant(0.5, 2 * 4096 + 256)
        ms_all = np.asarray(bounds._default_m_samples(n, 2))
        lat = bounds._Lattice(bounds.lattice(n, 4096, 2), r, reach=n + int(np.abs(ms_all).max()))
        w = lat.weight(n - lat.j, (n,))
        vecs = bounds._sweep(lat.mask.astype(float), lambda g: lat.hank(w * g), 3)
        for ms in [ms_all, *(ms_all[:k] for k in range(1, 10))]:
            front = lat.rtab[np.abs(ms[:, None] + lat.j[None, :])] * w
            for got, v in zip(bounds._front_dots(lat, ms, w, vecs), vecs):
                assert np.array_equal(got, front @ v), len(ms)

class TestNestedVsMatrix:
    def test_order_zero_is_plain_coupling(self):
        p = pot.mathieu(1.0)
        dev = bounds.sigma_nested_vs_matrix(p, range(2, 18, 2), 64 + 8j, 0)
        assert dev < 1e-15

    def test_zero_potential(self):
        for s in (1, 2):
            dev = bounds.sigma_nested_vs_matrix(pot.zero(), range(2, 18, 2), 64 + 8j, s)
            assert dev == 0.0

    def test_eight_point_identity(self):
        p = pot.delta_comb(0.5, max_index=64)
        idx = [-14, -10, -6, -2, 2, 6, 10, 14]
        for s in (1, 2, 3):
            dev = bounds.sigma_nested_vs_matrix(p, idx, complex(64, 8), s)
            assert dev <= 1e-12

    def test_branch_cut_flagged(self):
        with pytest.raises(bounds.BranchAmbiguity):
            bounds.sigma_nested_vs_matrix(pot.mathieu(1.0), [2, 4], complex(-5.0, 0.0), 1)


def first_order_row(rep):
    """The suite's one ``first_order_total`` check."""
    (row,) = [c for c in rep.checks if c.name == "first_order_total"]
    return row


def first_order_parts(p, n, cutoff, step):
    """(columns, rows): sum |W(k, m)| and sum |W(m, k)| over m = +-n (n
    under Dirichlet) and the lattice k != +-n, each over
    |n^2 - k^2|, one ``math.fsum`` per side, W read from ``w.get`` (step 2)
    or ``qt.get`` (step 1) coefficient by coefficient."""
    if step == 2:
        def W(k, m):
            return (k - m) * complex(p.w.get(k - m))
        ks, ms = range(-cutoff + (n + cutoff) % 2, cutoff + 1, 2), (n, -n)
    else:
        def W(k, m):
            return (abs(k - m) * complex(p.qt.get(abs(k - m)))
                    - (k + m) * complex(p.qt.get(k + m))) / math.sqrt(2.0)
        ks, ms = range(1, cutoff + 1), (n,)
    pairs = [(k, m) for k in ks if abs(k) != n for m in ms]
    return tuple(math.fsum(abs(W(*km)) / abs(n * n - k * k) for k, m in pairs
                           for km in [(k, m) if side == 0 else (m, k)])
                 for side in (0, 1))


class TestFirstOrderTotal:
    def test_zero_potential(self):
        z = pot.zero()
        chk = first_order_row(bounds.lemma_suite(pot.majorant(z), 16, potential=z))
        assert chk.passed and chk.lhs == 0.0

    def test_delta_both_sides(self):
        p = pot.delta_comb(1.0, max_index=4000)
        r = pot.majorant(p)
        chk = first_order_row(bounds.lemma_suite(r, 40, potential=p))
        assert chk.passed and chk.lhs > 0
        assert np.isclose(chk.rhs, 4 * r.norm / math.sqrt(40) + 4 * r.tail_energy(40))

    def test_mathieu_margin(self):
        p = pot.mathieu(1.0)
        chk = first_order_row(bounds.lemma_suite(pot.majorant(p), 20, potential=p))
        assert chk.passed and chk.margin > 0

    def test_equals_twice_the_single_chains(self):
        # a real potential has rows and columns of the same moduli, so the
        # mass is twice the columns, L(1, n) + L(1, -n)
        p = pot.delta_comb(0.5, max_index=2000)
        n, cutoff = 20, 160
        row = first_order_row(bounds.lemma_suite(pot.majorant(p), n, cutoff, potential=p))
        l_plus = bounds.l_sum(p, 1, n, n, cutoff=cutoff, check_tail=False)
        l_minus = bounds.l_sum(p, 1, -n, n, cutoff=cutoff, check_tail=False)
        assert np.isclose(row.lhs, 2 * (l_plus + l_minus), rtol=1e-12)

    @pytest.mark.parametrize("case", ["mathieu/per+", "delta/per+", "complex/per+",
                                      "sawtooth/per-", "sawtooth/dir"])
    def test_equals_the_enumeration(self, case):
        # the rows plus the columns of the first-order residue, against an
        # entry-by-entry enumeration of the coefficients.  For the complex
        # potential (|V(-2)| = 0.2, |V(2)| = 1) the row and the column of n
        # alone differ; the reflection (k, m) -> (-k, -m) of the lattice
        # swaps them with those of -n, so their totals agree
        name, bc = case.split("/")
        n, cutoff = {"per+": (12, 384), "per-": (13, 416), "dir": (12, 384)}[bc]
        p = {"mathieu": lambda: pot.mathieu(1.0),
             "delta": lambda: pot.delta_comb(0.5, max_index=1024),
             "complex": lambda: pot.from_coeffs(0.0, [(2, 0.5), (-2, 0.1j)]),
             "sawtooth": lambda: pot.sawtooth(1.0, max_index=1024)}[name]()
        if bc == "dir":
            p = pot.per_to_dir(p, 2 * cutoff)
            r, step = pot.majorant_dir(p), 1
        else:
            r, step = pot.majorant(p), 2
        row = first_order_row(bounds.lemma_suite(r, n, cutoff, potential=p))
        cols, rows = first_order_parts(p, n, cutoff, step)
        assert row.lhs > 0
        assert abs(row.lhs - (cols + rows)) <= 1e-13 * row.lhs

    def test_dirichlet_variant(self):
        sp = pot.per_to_dir(pot.delta_comb(1.0, max_index=2000), 500)
        chk = first_order_row(bounds.lemma_suite(pot.majorant_dir(sp), 24, potential=sp))
        assert chk.passed

    @pytest.mark.parametrize("K", [32, 600])
    def test_rhs_reads_the_reports_majorant(self, K):
        # 4||r||/sqrt(n) + 4 E_n(r) of the r handed in (its norm is the
        # report's r_norm), and the first-order mass at the report's
        # cutoff: under Dirichlet a majorant cut at 2K has a smaller ||r||
        # than one through 2 cutoff, and the check must not build a second one
        saw = pot.sawtooth(1.0, max_index=2 * 1024 + 64)
        n, cutoff = 16, 1024
        r = hp.operator.majorant_for(saw, BC.DIRICHLET, 2 * K)
        rep = bounds.lemma_suite(r, n, cutoff, potential=saw)
        row = first_order_row(rep)
        assert rep.inputs["r_norm"] == r.norm
        assert row.rhs == 4.0 * r.norm / math.sqrt(n) + 4.0 * r.tail_energy(n)
        mass = sum(first_order_parts(pot.per_to_dir(saw, cutoff + n), n, cutoff, 1))
        assert abs(row.lhs - mass) <= 1e-13 * mass


class TestHarmonicWeightSum:
    """``_harmonic_weight_sum``: sum 1/|n^2 - j^2| over the lattice in O(n)."""

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("n", [4, 5, 8, 9, 13])
    def test_exact_on_small_lattices(self, n, step):
        # at cutoff ~8n the far terms sum_{k=K+1}^{K+m} 1/k are several
        # per cent of the sum: a helper that drops them fails here (checked
        # by that mutation)
        for cutoff in (8 * n, 8 * n + 1, 8 * n + 3):
            js = bounds.lattice(n, cutoff, step, (n, -n))
            exact = sum(Fraction(1, abs(n * n - int(j) ** 2)) for j in js)
            got = bounds._harmonic_weight_sum(n, cutoff, step)
            assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("n", [4, 8, 9, 32, 128, 1000])
    def test_matches_the_direct_sum_of_the_suite(self, n, step):
        # the lattice to 1e5 with float temporaries, as lemma_suite summed it
        js = bounds.lattice(n, 10 ** 5, step, (n, -n)).astype(float)
        direct = float(np.sum(1.0 / np.abs(n * n - js ** 2)))
        got = bounds._harmonic_weight_sum(n, 10 ** 5, step)
        assert abs(got - direct) <= 1e-14 * direct


class TestLemmaSuite:
    def test_zero_majorant_all_pass_with_full_margin(self):
        rep = bounds.lemma_suite(zero_majorant(), 32, cutoff=512)
        assert rep.all_passed
        for c in rep.checks:
            if c.name in ("sigma1_single_near", "sigma2_pair", "chain_le_sigma"):
                assert c.lhs == 0.0

    def test_harmonic_weight_sum_n50(self):
        # direct sum over |j| <= 1e5 against 2 ln(300)/50
        n = 50
        js = np.array([j for j in range(-10 ** 5, 10 ** 5 + 1, 2) if abs(j) != n])
        lhs = float(np.sum(1.0 / np.abs(n * n - js.astype(float) ** 2)))
        rhs = 2 * math.log(6 * n) / n
        assert lhs < rhs
        rep = bounds.lemma_suite(delta_majorant(0.5, 9000), n, cutoff=512)
        row = [c for c in rep.checks if c.name == "harmonic_weight_sum"][0]
        assert row.passed and np.isclose(row.rhs, rhs)

    def test_peak_memory(self):
        # one level of the bounds-delta workload; the harmonic weight sum
        # over |j| <= 1e5 alone took 2.3 MiB, and the suite 2.84 MiB
        p = pot.delta_comb(0.5, max_index=9000)
        r = pot.majorant(p)
        np.fft.irfft(np.fft.rfft(np.zeros(8)))  # numpy.fft's first-call set-up
        tracemalloc.start()
        try:
            bounds.lemma_suite(r, 8, 4096, potential=p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

    def test_mathieu_full_suite(self):
        p = pot.mathieu(1.0)
        rep = bounds.lemma_suite(pot.majorant(p), 64, potential=p)
        assert rep.all_passed
        names = {c.name for c in rep.checks}
        assert bounds.GATED_CHECKS <= names | {"first_order_total"}
        assert rep.values["kappa"] == max(rep.values["rho"], rep.values["eps"])
        assert rep.values["bound64"] == 64 * rep.values["kappa"]

    def test_report_serialization(self):
        import json
        p = pot.mathieu(1.0)
        rep = bounds.lemma_suite(pot.majorant(p), 32, cutoff=256, potential=p)
        payload = bounds.report_to_json(rep)
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload
        assert payload["all_passed"] == rep.all_passed
        assert payload["inputs"]["n"] == 32

    def test_default_cutoff(self):
        assert bounds.default_cutoff(32) == 4096 and bounds.default_cutoff(1000) == 8000
        rep = bounds.lemma_suite(zero_majorant(), 32)
        assert bounds.report_to_json(rep)["inputs"]["cutoff"] == bounds.default_cutoff(32)

    def test_cutoff_converged_is_the_largest_tail(self):
        # the last row of every report holds its largest relative tail
        # estimate against TAIL_RTOL, converged or not, on either lattice
        comb = pot.delta_comb(0.5, max_index=4200)
        sp = pot.per_to_dir(comb, 4200)
        reports = [bounds.lemma_suite(pot.majorant(comb), 8, 64, potential=comb),
                   bounds.lemma_suite(pot.majorant(comb), 32, potential=comb),
                   bounds.lemma_suite(pot.majorant_dir(sp), 8, 2048, potential=sp),
                   bounds.lemma_suite(zero_majorant(), 32, 512)]
        for rep in reports:
            row, top = rep.checks[-1], max(rep.tail_estimates.values())
            assert (row.name, row.lhs, row.rhs, row.note) == (
                "cutoff_converged", top, bounds.TAIL_RTOL, "max relative tail estimate")
            assert row.passed == (top <= bounds.TAIL_RTOL)
        assert [rep.checks[-1].passed for rep in reports] == [False, True, True, True]

    @pytest.mark.parametrize("sine", [True, False])
    def test_step_one_lists_the_chain_checks_as_not_run(self, sine):
        # L/R need a Toeplitz+Hankel majorant of the sine coupling: on the
        # step-1 lattice the suite sweeps neither, for sine data or Fourier
        # data, lists their checks as failed and not run, and still runs
        # the first-order total once
        saw = pot.sawtooth(1.0, max_index=600)
        sp = pot.per_to_dir(saw, 600)
        given = sp if sine else saw
        rep = bounds.lemma_suite(pot.majorant_dir(sp), 12, 96, potential=given)
        assert rep.inputs["potential"] == type(given).__name__
        assert rep.l_table == {} == rep.r_table
        assert not any(label.startswith("L(") for label in rep.tail_estimates)
        unrun = [c for c in rep.checks if c.note.startswith("not run")]
        assert [c.name for c in unrun] == ["chain_le_sigma", "reflection_identity"]
        assert all(not c.passed and math.isnan(c.lhs) and math.isnan(c.rhs) for c in unrun)
        assert [c.name for c in rep.checks].count("first_order_total") == 1
        assert not rep.gated_passed

    def test_sigma_refuses_a_cutoff_where_the_suite_tail_fails(self):
        # one tail rule: sigma(n, 1) raises CutoffTooSmall at exactly the
        # cutoffs where the suite records a sigma[s=1] tail above TAIL_RTOL
        r = delta_majorant(0.5, 2 * 4096 + 64)
        n, raised = 8, []
        for cutoff in (64, 128, 256, 512, 1024):
            over = bounds.lemma_suite(r, n, cutoff).tail_estimates["sigma[s=1]"] > bounds.TAIL_RTOL
            try:
                bounds.sigma(r, n, 1, cutoff=cutoff)
                raised.append(False)
            except bounds.CutoffTooSmall:
                raised.append(True)
            assert raised[-1] == over, cutoff
        assert raised == [True, True, True, False, False]

    def test_needs_n_at_least_4(self):
        with pytest.raises(ValueError):
            bounds.lemma_suite(zero_majorant(), 3)
