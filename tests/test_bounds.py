import itertools
import math

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
    def test_kappa_cases(self, rho, eps, expect):
        kappa, bound64, valid = bounds.kappa_and_bound(rho, eps)
        assert (kappa, bound64, valid) == expect


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
        vabs = lambda d: abs(d * p.wc(d))
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
        direct = sum(abs((n - i) * p.wc(n - i)) / abs(n * n - i * i)
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
        r = delta_majorant(1.0, top=64)
        idx = np.array(TINY_IDX)
        for s in (2, 3, 4):
            pieces = [bounds.sigma_tilde(r, 4, [(-1 if (bits >> t) & 1 == 0 else 1)
                                                for t in range(s - 1)], indices=idx)
                      for bits in range(2 ** (s - 1))]
            sv = bounds.sigma(r, 4, s, indices=idx)
            assert abs(sum(pieces) - sv) <= 1e-12 * max(1, sv)

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
        vtab = vabs_src.vabs_table(top)
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
        where = dict(cutoff=8 * n, step=step, check_tail=False)
        self.check_public(step, bounds.lattice(n, 8 * n, step, (n, -n)),
                          bounds.lattice(n, 8 * n, step, (n,)), where, where)

    @pytest.mark.parametrize("step", [1, 2])
    def test_public_sums_on_gapped_indices(self, step):
        n = self.N
        gaps = {n, -n, -10, 12, 14, 3, 5}
        idx = np.array([j for j in range(-30, 31, step) if j not in gaps])
        idx1 = np.array(sorted(set(idx) | {-n}))
        self.check_public(step, idx, idx1, dict(indices=idx), dict(indices=idx1))

    @pytest.mark.parametrize("step", [1, 2])
    def test_lemma_suite_tables(self, step):
        n, cutoff = self.N, 64
        r, src = step_case(step)
        potential = src if step == 2 else None
        rep = bounds.lemma_suite(r, n, cutoff, potential=potential, step=step)
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


class TestFirstOrderTotal:
    def test_zero_potential(self):
        chk = bounds.a0_bound_check(pot.zero(), BC.PER_PLUS, 16)
        assert chk.passed and chk.lhs == 0.0

    def test_delta_both_sides(self):
        p = pot.delta_comb(1.0, max_index=4000)
        chk = bounds.a0_bound_check(p, BC.PER_PLUS, 40)
        assert chk.passed and chk.lhs > 0
        r = pot.majorant(p)
        assert np.isclose(chk.rhs, 4 * r.norm / math.sqrt(40) + 4 * r.tail_energy(40))

    def test_mathieu_margin(self):
        chk = bounds.a0_bound_check(pot.mathieu(1.0), BC.PER_PLUS, 20)
        assert chk.passed and chk.margin > 0

    def test_equals_twice_the_single_chains(self):
        p = pot.delta_comb(0.5, max_index=2000)
        n, cutoff = 20, 160
        a0 = bounds.a0_sum(p, BC.PER_PLUS, n, cutoff)
        l_plus = bounds.l_sum(p, 1, n, n, cutoff=cutoff, check_tail=False)
        l_minus = bounds.l_sum(p, 1, -n, n, cutoff=cutoff, check_tail=False)
        assert np.isclose(a0, 2 * (l_plus + l_minus), rtol=1e-12)

    def test_dirichlet_variant(self):
        sp = pot.per_to_dir(pot.delta_comb(1.0, max_index=2000), 500)
        chk = bounds.a0_bound_check(sp, BC.DIRICHLET, 24)
        assert chk.passed


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
        payload = json.loads(bounds.report_to_json(rep))
        assert payload["all_passed"] == rep.all_passed
        assert payload["inputs"]["n"] == 32
        rows = bounds.report_csv_rows(rep)
        assert rows[0][0] == "name" and len(rows) == len(rep.checks) + 1

    def test_needs_n_at_least_4(self):
        with pytest.raises(ValueError):
            bounds.lemma_suite(zero_majorant(), 3)
