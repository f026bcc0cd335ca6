"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line. Exact criteria use exact integer or
rational equality (zero tolerance); randomized criteria use the fixed seeds
and thresholds stated inline, never looser ones.
"""

import random
import time
from fractions import Fraction
from math import comb

from hypermatch import (
    KGraph,
    build_Hknm,
    complete,
    min_l_degree,
    parity_construction,
    random_kgraph,
    space_barrier,
    vertex_degree_threshold,
)
from hypermatch.harness import (
    conjecture_search,
    emit_report,
    tightness_grid,
    verify_tightness,
)
from hypermatch.lp import (
    VertexWeights,
    clique_window_matching,
    max_fractional_matching,
    min_fractional_cover,
    relabel_by_weights,
    weight_closure,
)
from hypermatch.core import is_stable
from hypermatch.matching import NibbleConfig, exact_nu, nibble_matching_report
from hypermatch.pipeline import (
    PipelineConfig,
    SamplerSettings,
    check_pipeline_preconditions,
    chernoff_band,
    first_round_sampler,
    fractional_pm_pipeline,
    minimal_feasible_r,
)
from hypermatch.constructions import join_clique


def _verdict(num: int, ok: bool, summary: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"criterion {num:02d}: {summary}"


def test_c01_tightness_suite():
    t0 = time.perf_counter()
    grid = tightness_grid(ks=(3, 4), n_max=14)
    report = verify_tightness(grid)  # raises TightnessFailure on any mismatch
    for rec in report.instances:
        n, k, m = rec["n"], rec["k"], rec["m"]
        assert rec["delta1"] == comb(n - 1, k - 1) - comb(n - m, k - 1)
        assert rec["nu"] == m - 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        elapsed < 60,
        f"{len(report.instances)} grid points, exact degree and matching equalities, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_c02_duality_suite():
    t0 = time.perf_counter()
    ps = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]
    checked = 0
    for i in range(200):
        k = 3 + (i % 2)
        n = 5 + (i % 5)
        p = ps[(i // 2) % 3]
        H = random_kgraph(n, k, p, seed=i)
        nu_frac, phi = max_fractional_matching(H)
        tau_frac, w = min_fractional_cover(H)
        assert nu_frac == tau_frac, (i, nu_frac, tau_frac)
        nu, _ = exact_nu(H)
        assert nu <= nu_frac, (i, nu, nu_frac)
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        checked == 200 and elapsed < 300,
        f"200 random graphs: exact nu' = tau' and nu <= nu', {elapsed:.1f}s (< 300s)",
    )


def test_c03_clique_windows():
    checked = 0
    for k in (3, 4, 5):
        for n in range(k + 1, 14):
            phi = clique_window_matching(n, k)  # feasibility validated on construction
            assert phi.value() == Fraction(n, k), (n, k)
            assert all(load == 1 for load in phi.loads().values()), (n, k)
            val, _ = max_fractional_matching(complete(n, k))
            assert val == Fraction(n, k), (n, k)
            checked += 1
    _verdict(3, checked == 27, f"{checked} (n, k) pairs: window value and LP optimum both n/k exactly")


def _pipeline_instances():
    cfg = PipelineConfig()
    found = []
    seed = 0
    while len(found) < 20 and seed < 200:
        n = 12 + (seed % 7)
        m = 2 + (seed % 2)
        p = Fraction(7, 10) if seed % 3 else Fraction(17, 20)
        H = random_kgraph(n, 3, p, seed=1000 + seed)
        r = minimal_feasible_r(n, 3, m)
        pre = check_pipeline_preconditions(H, m, r, cfg)
        if pre["alpha_ok"] and pre["degree_ok"] and pre["clique_ok"]:
            found.append((H, n, m, r))
        seed += 1
    return cfg, found


def test_c04_pipeline_end_to_end():
    t0 = time.perf_counter()
    cfg, instances = _pipeline_instances()
    assert len(instances) == 20, "instance generation must yield 20 precondition-clean cases"
    structural = ("link_stability", "complete_block", "neighborhood_transfer")
    for H, n, m, r in instances:
        phi, trace = fractional_pm_pipeline(H, m, r, cfg)
        assert phi.is_perfect() and trace.value == Fraction(n + r, 3)
        done = {s.name: s.status for s in trace.steps}
        assert all(done.get(name) == "ok" for name in structural), (n, m)
        lp_val, _ = max_fractional_matching(join_clique(H, r))
        assert lp_val == trace.value, (n, m, lp_val, trace.value)
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        elapsed < 600,
        f"20 seeded instances: verified perfect fractional matchings matching the LP optimum "
        f"exactly, all structural checks ok, {elapsed:.1f}s (< 600s)",
    )


def test_c05_stability_property():
    rng = random.Random(20240905)
    failures = 0
    for i in range(100):
        n = 4 + (i % 9)  # 4..12
        den = rng.randint(1, 8)
        w = VertexWeights(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))
        H = weight_closure(n, 3, w)
        G, perm = relabel_by_weights(H, w)
        from hypermatch.lp import permute_weights

        sorted_w = permute_weights(w, perm)
        closure = weight_closure(n, 3, sorted_w)
        if not (is_stable(closure) and closure == G):
            failures += 1
    _verdict(5, failures == 0, "100 weight vectors: closure after weight-sorting is stable")


def test_c06_nibble_coverage():
    t0 = time.perf_counter()
    cfg_base = dict(bite_fraction=Fraction(1, 10), max_rounds=40)

    K = complete(300, 3)
    k_fracs = sorted(
        nibble_matching_report(K, NibbleConfig(seed=s, **cfg_base)).covered_fraction
        for s in range(10)
    )
    k_median = k_fracs[5]

    target_e = 300 * 200 // 3
    p = Fraction(target_e, comb(300, 3))
    G = random_kgraph(300, 3, p, seed=0)
    g_reports = [nibble_matching_report(G, NibbleConfig(seed=s, **cfg_base)) for s in range(10)]
    g_fracs = sorted(rep.covered_fraction for rep in g_reports)
    g_median = g_fracs[5]
    gate = g_reports[0]
    codegree_ratio = gate.max_codegree / gate.average_degree
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        k_median >= Fraction(17, 20)
        and g_median >= Fraction(17, 20)
        and 150 <= gate.average_degree <= 250
        and codegree_ratio < 0.05
        and elapsed < 120,
        f"median covered fraction {float(k_median):.3f} (complete) / {float(g_median):.3f} "
        f"(random, D={gate.average_degree:.0f}, codegree ratio {codegree_ratio:.3f}), "
        f"{elapsed:.1f}s (< 120s)",
    )


def test_c07_sampler_concentration():
    n, copies, keep = 4000, 500, 0.05
    host = KGraph(n, 3, [])
    settings = SamplerSettings(keep_probability=keep, copy_count=copies, seed=20240907)
    family = first_round_sampler(host, settings)

    size_lo, size_hi = chernoff_band(n, Fraction(1, 20), 1e-3)
    size_lo -= host.k - 1  # trimming removes < k vertices
    count_lo, count_hi = chernoff_band(copies, Fraction(1, 20), 1e-3)
    sizes_in = sum(size_lo <= s <= size_hi for s in family.sizes) / copies
    counts_in = sum(count_lo <= c <= count_hi for c in family.vertex_counts.values()) / n
    _verdict(
        7,
        sizes_in >= 0.99 and counts_in >= 0.99,
        f"{sizes_in:.4f} of copies and {counts_in:.4f} of vertices inside their "
        f"0.001-failure bands (need >= 0.99)",
    )


def test_c08_containment_oracle_equivalence():
    import oracles
    from hypermatch.containment import eps_contains

    ps = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    checked = 0
    for i in range(50):
        n = 7 + (i % 4)
        m = 2 + (i % 2)
        H = random_kgraph(n, 3, ps[i % 3], seed=i)
        exh = eps_contains(H, m, Fraction(1, 100), mode="exhaustive")
        expect, _ = oracles.brute_min_deficiency(H.edges, n, 3, m)
        assert exh.deficiency == expect, (i, exh.deficiency, expect)
        loc = eps_contains(H, m, Fraction(1, 100), mode="local")
        assert loc.deficiency >= exh.deficiency, i
        checked += 1
    _verdict(
        8, checked == 50, "50-graph corpus: exhaustive matches brute force; local search never beats it"
    )


def test_c09_conjecture_harness_integrity():
    thr = vertex_degree_threshold(9, 3, 2)

    # the extremal instance sits exactly at the threshold and is excluded
    H_ext, _ = build_Hknm(9, 3, 2)
    assert min_l_degree(H_ext, 1) == thr

    report = conjecture_search(9, 3, 2, model="conditioned", trials=5000, seed=20240909)
    assert not report.incomplete
    assert all(inst["status"] == "ok" for inst in report.instances)
    assert all(inst["delta1"] > thr for inst in report.instances)
    again = conjecture_search(9, 3, 2, model="conditioned", trials=5000, seed=20240909)
    assert emit_report(report) == emit_report(again)
    # counterexamples are reported, never asserted absent
    _verdict(
        9,
        True,
        f"5000 conditioned trials, {report.params['accepted']} filtered and re-verified, "
        f"deterministic report, {len(report.counterexamples)} counterexamples reported",
    )


def test_c10_negative_controls():
    nu_barrier, _ = exact_nu(space_barrier(6, 3))
    nu_parity, _ = exact_nu(parity_construction(3, 3, 3))
    _verdict(
        10,
        nu_barrier == 1 and nu_parity == 1,
        f"space barrier nu={nu_barrier} < 2 and parity construction nu={nu_parity} < 2: "
        "both obstruct perfect matchings",
    )
