"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

import numpy as np

import hillproj as hp
from hillproj import bounds, cli, norms
from hillproj import potential as pot
from hillproj import projector as prj
from conftest import SWEEP_LEVELS, TIMINGS

BC = hp.BoundaryCondition
PI = math.pi


def crit(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_1_residue_oracle(gallery):
    t0 = time.time()
    worst = 0.0
    for pname, p in gallery.items():
        for bc in BC:
            # levels of each lattice: the per- levels are odd
            for n in ([9, 17, 33] if bc is BC.PER_MINUS else [8, 16, 32]):
                dev = prj.quadrature_vs_residue_check(p, bc, n, 4 * n, nodes=64)
                worst = max(worst, dev)
                assert dev <= 1e-10, (pname, bc.value, n, dev)
    elapsed = time.time() - t0
    crit(1, "first-order quadrature matches the closed-form residues",
         worst <= 1e-10 and elapsed <= 60.0,
         f"(max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_projector_algebra(big_matrices, sweeps):
    t0 = time.time()
    worst = {"idem": 0.0, "trace": 0.0, "ortho": 0.0, "dense": 0.0}
    for (pname, bc), pairs in sweeps.items():
        H = big_matrices[pname, bc]
        validated = prj.validated_levels(H, SWEEP_LEVELS[bc])
        assert validated, (pname, bc.value)
        for n in validated:
            pair = pairs[n]
            worst["idem"] = max(worst["idem"], pair.idempotency)
            worst["trace"] = max(worst["trace"], abs(pair.trace - bc.rank))
            dense = prj.spectral_projector_dense(H, n)
            worst["dense"] = max(worst["dense"],
                                 float(np.linalg.norm(pair.P - dense, "fro")))
        for a, b in itertools.combinations(validated, 2):
            cross = float(np.linalg.norm(pairs[a].P @ pairs[b].P, "fro"))
            worst["ortho"] = max(worst["ortho"], cross)
    elapsed = time.time() - t0 + TIMINGS.get("sweeps", 0.0)
    ok = (worst["idem"] <= 1e-8 and worst["trace"] <= 1e-6
          and worst["ortho"] <= 1e-7 and worst["dense"] <= 1e-7
          and elapsed <= 600.0)
    crit(2, "projector algebra (idempotency/trace/orthogonality/dense oracle)",
         ok, f"({', '.join(f'{k}={v:.2e}' for k, v in worst.items())}, {elapsed:.0f}s)")


def test_criterion_3_localization(big_matrices):
    bad = []
    for (pname, bc), H in big_matrices.items():
        for n in range(6, 41):
            if not bc.level_ok(n):
                continue
            c = prj.eigen_count_in_disc(H, n)
            if c != bc.rank:
                bad.append((pname, bc.value, n, c))
    crit(3, "disc eigenvalue counts are 2 (Per+-) / 1 (Dir) for n in 6..40",
         not bad, f"violations: {bad}" if bad else "")


def test_criterion_4_decay_trend(decay_records):
    details = []
    ok = True
    for pname in ("mathieu", "delta"):
        recs = [r for r in decay_records[pname, BC.PER_PLUS] if 10 <= r.n <= 60]
        sums = np.array([r.sum_abs_B for r in recs])
        third = len(sums) // 3
        trend = sums[-third:].max() < sums[:third].min()
        ok &= trend
        details.append(f"{pname}: last3={sums[-third:].max():.3e} < first3={sums[:third].min():.3e}")
        if pname == "mathieu":
            ns = np.array([r.n for r in recs], dtype=float)
            c_fit = float((sums / ns).sum() / (1.0 / ns ** 2).sum())
            resid = float(np.linalg.norm(sums - c_fit / ns) / np.linalg.norm(sums))
            ok &= c_fit > 0 and resid < 0.25
            details.append(f"C/n fit: C={c_fit:.2f} resid={resid:.1%}")
    crit(4, "deviation sums decay (trend + C/n envelope)", ok, "; ".join(details))


def test_criterion_5_bound_consistency(decay_records):
    valid_count, violations, global_ok = 0, [], True
    for recs in decay_records.values():
        for rec in recs:
            if rec.bound_valid:
                valid_count += 1
                if rec.sum_abs_B > rec.bound64:
                    violations.append(rec)
            # informative at desk scale: the estimate holds with slack even
            # where the validity threshold kappa < 1/4 is not yet reached
            global_ok &= rec.sum_abs_B <= rec.bound64
    crit(5, "sum|B(n)| <= 64 kappa(n) wherever kappa(n) < 1/4",
         not violations,
         f"({valid_count} levels reach the threshold at desk scale; "
         f"estimate held at all computed levels: {global_ok})")


def test_criterion_6_combinatorics_oracle(gallery):
    from test_bounds import enum_L, enum_R, enum_sigma, enum_sigma1, enum_sigma2

    p = gallery["delta"]
    r = pot.majorant(p)
    vabs = lambda d: abs(d * p.w.get(d))
    n = 4
    idx = np.array([-12, -8, -6, -2, 0, 2, 6, 8, 10, 12])       # 10 indices, no +-4
    idx1 = np.array([-12, -8, -6, -4, -2, 0, 2, 6, 8, 10, 12])  # no +4
    worst = 0.0

    def gap(a, b):
        return abs(a - b) / max(1.0, abs(a))

    for s in (1, 2, 3):
        for d in (n, -n):
            worst = max(worst, gap(bounds.l_sum(p, s, d, n, indices=idx),
                                   enum_L(vabs, s, d, n, idx)))
            worst = max(worst, gap(bounds.r_sum(p, s, d, n, indices=idx),
                                   enum_R(vabs, s, d, n, idx)))
        worst = max(worst, gap(bounds.sigma(r, n, s, indices=idx),
                               enum_sigma(r, n, s, idx)))
        worst = max(worst, gap(bounds.sigma1(r, n, s, 6, indices=idx1),
                               enum_sigma1(r, n, s, 6, idx1)))
        if s >= 2:
            worst = max(worst, gap(bounds.sigma2(r, n, s, 6, indices=idx),
                                   enum_sigma2(r, n, s, 6, idx)))
    refl = 0.0
    n_big = 16
    for pp in (1, 2, 3, 4):
        for d in (n_big, -n_big):
            lv = bounds.l_sum(p, pp, -d, n_big, cutoff=8 * n_big, check_tail=False)
            rv = bounds.r_sum(p, pp, d, n_big, cutoff=8 * n_big, check_tail=False)
            refl = max(refl, gap(rv, lv))
    crit(6, "transfer sums match enumeration; R(p,d) = L(p,-d)",
         worst <= 1e-12 and refl <= 1e-12,
         f"(enum gap {worst:.2e}, reflection gap {refl:.2e})")


def test_criterion_7_lemma_suite():
    suite_gallery = {
        "zero": pot.zero(),
        "mathieu": pot.mathieu(1.0),
        "delta": pot.delta_comb(0.5, max_index=9000),
        "sawtooth": pot.sawtooth(1.0, max_index=9000),
    }
    failures, attributed = [], []
    for pname, p in suite_gallery.items():
        r = pot.majorant(p)
        for n in (32, 64, 128):
            rep = bounds.lemma_suite(r, n, potential=p)
            for c in rep.checks:
                if c.name in bounds.GATED_CHECKS and not c.passed:
                    # a truncated failure is only acceptable when the tail
                    # estimate exceeds the deficit
                    tail = max(rep.tail_estimates.values(), default=0.0) * abs(c.lhs)
                    if tail > -c.margin:
                        attributed.append((pname, n, c.name))
                    else:
                        failures.append((pname, n, c.name, c.lhs, c.rhs))
    crit(7, "inequality suite holds at truncation for gallery majorants",
         not failures,
         f"(12 runs x gated checks; tail-attributed: {len(attributed)})"
         if not failures else f"failures: {failures[:4]}")


def test_criterion_8_series_vs_operator(gallery):
    worst = 0.0
    idx = [-14, -10, -6, -2, 2, 6, 10, 14]
    for pname, p in gallery.items():
        for s in (0, 1, 2):
            dev = bounds.sigma_nested_vs_matrix(p, idx, complex(64.0, 8.0), s)
            worst = max(worst, dev)
    crit(8, "nested chain sums equal the resolvent-product entries",
         worst <= 1e-12, f"(max dev {worst:.2e})")


def test_criterion_9_lp_equivalence(big_matrices, sweeps):
    details, ok = [], True
    for pname in ("mathieu", "delta"):
        pairs = sweeps[pname, BC.PER_PLUS]
        for n in (20, 40):
            rep = norms.equivalence_check(pairs[n], samples=1000, M=8192)
            assert rep.regime_ok, (pname, n, rep.proxy)
            ok &= rep.max_ratio <= 3.0 + 0.05
            details.append(f"{pname} n={n}: ratio {rep.max_ratio:.3f}")
    H = big_matrices["mathieu", BC.PER_PLUS]
    for N in (10, 20):
        blk = prj.rectangle_projection(H, N)
        rep = norms.sn_equivalence(blk, samples=200, M=8192)
        ok &= rep.max_ratio <= 50.0 * N * math.log(N)
        details.append(f"S_{N}: ratio {rep.max_ratio:.2f} vs {50 * N * math.log(N):.0f}")
    crit(9, "sup norm <= (3 + 0.05) * mean-L1 on Ran P; 50 N ln N on Ran S_N",
         ok, "; ".join(details))


def test_square_summability_diagnostic(decay_records):
    # not an acceptance criterion by itself: the partial sums of t_n^2
    # must flatten (last-quarter share well under 15%) on the real sweeps
    for pname in ("mathieu", "delta"):
        sq = np.array([rec.t_n for rec in decay_records[pname, BC.PER_PLUS]]) ** 2
        share = sq[-(len(sq) // 4):].sum() / sq.sum()
        assert len(sq) >= 8 and share < 0.15, (pname, share)


def test_decay_endpoint_comparison(decay_records):
    # sharper form of the trend: the worst late level beats the best early
    # level with room to spare
    for pname in ("mathieu", "delta"):
        recs = decay_records[pname, BC.PER_PLUS]
        late = max(r.sum_abs_B for r in recs if r.n >= 40)
        early = min(r.sum_abs_B for r in recs if 10 <= r.n <= 20)
        assert late < early, (pname, late, early)


def test_criterion_10_determinism(tmp_path):
    argv = ["verify", "--seed", "4242"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    same = True
    for name in ("verify_checks.csv", "verify_report.json"):
        same &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    crit(10, "verify is byte-identical for a fixed seed", same)
