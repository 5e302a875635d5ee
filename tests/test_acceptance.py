"""Acceptance criteria, one test per criterion.

Every identity checked here is an exact integer equality (tolerance
zero); the only tolerance in the module is the 1e-3 bracket width of the
orientability transition.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion.
"""

import math
import time

import numpy as np
import pytest

from eulerpart import (
    NodalConfig,
    RandomSpec,
    SurfaceSpec,
    bands_family,
    batch_verify,
    bisect_transition,
    boundary_graph,
    build_complex,
    check_chi_sigma,
    classify_circle_complement,
    cover_bookkeeping,
    cut,
    domain_reports,
    double_cover,
    ex3b_family,
    invariants,
    is_normal,
    normalize,
    orientability_bits,
    phi_family,
    random_partition,
    stable_invariants,
    sweep,
)

from cutgen import random_admissible_cut

PI = math.pi
MOEBIUS_COUNT = 1000
RECT_COUNT = 1000
KLEIN_COUNT = 200


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


_TIMINGS = {}


@pytest.fixture(scope="module")
def moebius_corpus():
    t0 = time.time()
    c = build_complex(SurfaceSpec.named("moebius", 32, 32))
    root = np.random.SeedSequence(20240717)
    out = []
    for i, child in enumerate(root.spawn(MOEBIUS_COUNT)):
        k = 1 + i % 10
        out.append(random_partition(c, RandomSpec(seed=int(child.generate_state(1)[0]), k=k)))
    _TIMINGS["moebius_corpus"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def rectangle_corpus():
    c = build_complex(SurfaceSpec.named("rectangle", 32, 32))
    root = np.random.SeedSequence(987654)
    out = []
    for i, child in enumerate(root.spawn(RECT_COUNT)):
        k = 1 + i % 10
        out.append(random_partition(c, RandomSpec(seed=int(child.generate_state(1)[0]), k=k)))
    return out


@pytest.fixture(scope="module")
def nodal_fixtures():
    t0 = time.time()
    cases = [("bands(3)", bands_family(3), NodalConfig(n=60)),
             ("bands(5)", bands_family(5), NodalConfig(n=20)),
             ("phi(pi/3,0.4pi)", phi_family(PI / 3, 0.4 * PI), NodalConfig(n=128)),
             ("ex3b(0.4pi)", ex3b_family(0.4 * PI), NodalConfig(n=128))]
    thetas = np.linspace(0.02, PI / 2 - 0.02, 25)
    for t in thetas:
        cases.append((f"phi(pi/6,{t:.4f})", phi_family(PI / 6, float(t)), NodalConfig(n=48)))
    out = [(name, stable_invariants(f, "moebius", cfg)) for name, f, cfg in cases]
    _TIMINGS["nodal_fixtures"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def moebius_cover_reports(moebius_corpus):
    cs = double_cover(moebius_corpus[0].complex)
    return [cover_bookkeeping(cs, p) for p in moebius_corpus]


def test_criterion_1_moebius_theorem(moebius_corpus, nodal_fixtures):
    t0 = time.time()
    random_ok = all(invariants(p).defect == 0 for p in moebius_corpus)
    nodal_ok = all(sr.report.defect == 0 for _name, sr in nodal_fixtures)
    # charge generation and stabilization of the shared fixtures to this budget
    elapsed = (time.time() - t0
               + _TIMINGS["moebius_corpus"] + _TIMINGS["nodal_fixtures"])
    report(
        1,
        random_ok and nodal_ok and elapsed < 60.0,
        f"defect 0 on {len(moebius_corpus)} random moebius partitions and "
        f"{len(nodal_fixtures)} stabilized nodal fixtures ({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_planar_proposition(rectangle_corpus):
    random_ok = all(invariants(p).defect == 1 for p in rectangle_corpus)
    from eulerpart import Eigenfunction, Factor, Term

    f = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 3)),))
    sr = stable_invariants(f, "rectangle", NodalConfig(n=60))
    fixture_ok = sr.report.key() == (6, 0, 5, 0) and sr.report.defect == 1
    report(
        2,
        random_ok and fixture_ok,
        f"defect 1 on {len(rectangle_corpus)} random rectangle partitions; "
        f"sin(2x)sin(3y) gives kappa=6, beta=0, sigma=5",
    )


def test_criterion_3_figure_fixtures(nodal_fixtures):
    by_name = dict(nodal_fixtures)

    sr = by_name["bands(3)"]
    reps = domain_reports(sr.partition)
    bands = [r for r in reps if not r.orientable]
    cyls = [r for r in reps if r.orientable]
    ok3 = (
        sr.report.kappa == 2 and sr.report.omega == 1
        and len(bands) == 1 and (bands[0].crosscaps, bands[0].boundary_circles) == (1, 1)
        and len(cyls) == 1 and (cyls[0].genus, cyls[0].boundary_circles) == (0, 2)
    )

    sr5 = by_name["bands(5)"]
    cyls5 = [r for r in domain_reports(sr5.partition) if r.orientable]
    ok5 = sr5.report.kappa == 3 and len(cyls5) == 2 and all(
        (r.genus, r.boundary_circles) == (0, 2) for r in cyls5
    )

    srp = by_name["phi(pi/3,0.4pi)"]
    bg = boundary_graph(srp.partition)
    okp = (
        sorted(bg.degree[bg.singular_interior].tolist()) == [4, 4]
        and bg.degree[bg.singular_boundary].tolist() == [1, 1, 1, 1]
        and srp.report.sigma == 4
    )

    sre = by_name["ex3b(0.4pi)"]
    repse = domain_reports(sre.partition)
    bandse = [r for r in repse if not r.orientable]
    diskse = [r for r in repse if (r.chi, r.boundary_circles) == (1, 1)]
    oke = (
        sre.report.kappa == 4
        and len(bandse) == 1 and (bandse[0].crosscaps, bandse[0].boundary_circles) == (1, 3)
        and len(diskse) >= 1
    )

    report(
        3,
        ok3 and ok5 and okp and oke,
        "bands(3) = band + cylinder; bands(5) = band + 2 cylinders; "
        "phi(pi/3,0.4pi) has 2 interior nu=4 + 4 boundary rho=1, sigma=4; "
        "ex3b(0.4pi) has kappa=4 with a 2-holed band and a disk",
    )


def test_criterion_4_orientability_oracles(moebius_corpus, moebius_cover_reports):
    ok = True
    for p, rep in zip(moebius_corpus, moebius_cover_reports):
        counts = np.asarray(rep.preimage_counts)
        ok &= bool(np.all((counts == 1) | (counts == 2)))
        ok &= bool(np.array_equal(counts == 2, orientability_bits(p)))
    c = build_complex(SurfaceSpec.named("klein", 32, 32))
    cs = double_cover(c)
    root = np.random.SeedSequence(31415)
    for i, child in enumerate(root.spawn(KLEIN_COUNT)):
        p = random_partition(c, RandomSpec(seed=int(child.generate_state(1)[0]), k=1 + i % 10))
        rep = cover_bookkeeping(cs, p)
        counts = np.asarray(rep.preimage_counts)
        ok &= bool(np.all((counts == 1) | (counts == 2)))
        ok &= bool(np.array_equal(counts == 2, orientability_bits(p)))
    report(
        4,
        ok,
        f"parity and cover-preimage orientability agree per domain on "
        f"{len(moebius_corpus)} moebius + {KLEIN_COUNT} klein partitions; "
        f"preimage counts always in {{1,2}}",
    )


def test_criterion_5_cover_bookkeeping(moebius_cover_reports):
    # kappa* = 2 kappa - n and sigma* = 2 sigma are hard-asserted inside
    # cover_bookkeeping; re-check them here explicitly
    ok = all(
        rep.kappa_star == 2 * rep.kappa - rep.n_nonorientable
        and rep.sigma_star == 2 * rep.sigma
        and rep.n_nonorientable <= 1
        for rep in moebius_cover_reports
    )
    report(
        5,
        ok,
        f"kappa* = 2kappa - n, sigma* = 2sigma, n <= 1 on all "
        f"{len(moebius_cover_reports)} moebius cases",
    )


def test_criterion_6_surgery_invariance(moebius_corpus, rectangle_corpus, nodal_fixtures):
    ok = True
    # normalize: 200 random partitions + every nodal fixture
    for p in moebius_corpus[:100] + rectangle_corpus[:100]:
        before = invariants(p)
        q = normalize(p)
        after = invariants(q)
        ok &= is_normal(q) and (after.delta, after.omega) == (before.delta, before.omega)
    for _name, sr in nodal_fixtures:
        before = sr.report
        q = normalize(sr.partition)
        after = invariants(q)
        ok &= is_normal(q) and (after.delta, after.omega) == (before.delta, before.omega)
    # cut: 200 random admissible cuts
    rng = np.random.default_rng(2718281828)
    cuts_done = 0
    complexes = {
        "moebius": build_complex(SurfaceSpec.named("moebius", 12, 12)),
        "rectangle": build_complex(SurfaceSpec.named("rectangle", 12, 12)),
    }
    while cuts_done < 200:
        name = ("moebius", "rectangle")[cuts_done % 2]
        c = complexes[name]
        p = random_partition(
            c, RandomSpec(seed=int(rng.integers(2 ** 63)), k=1 + int(rng.integers(6)))
        )
        planned = random_admissible_cut(p, rng)
        if planned is None:
            continue
        q = cut(planned)
        ok &= invariants(q).delta == invariants(p).delta
        cuts_done += 1
    report(
        6,
        ok,
        f"normalize preserves (delta, omega) and yields normal partitions on "
        f"200 random + {len(nodal_fixtures)} nodal fixtures; "
        f"cut preserves delta on {cuts_done} random admissible cuts",
    )


def test_criterion_7_chi_sigma_identity(moebius_corpus, rectangle_corpus, nodal_fixtures):
    ok = all(check_chi_sigma(p).holds for p in moebius_corpus)
    ok &= all(check_chi_sigma(p).holds for p in rectangle_corpus)
    ok &= all(check_chi_sigma(sr.partition).holds for _n, sr in nodal_fixtures)
    n = len(moebius_corpus) + len(rectangle_corpus) + len(nodal_fixtures)
    report(7, ok, f"chi(surface) + sigma = sum of closed-domain chis on {n} partitions")


def test_criterion_8_transition_bracketing():
    cfg = NodalConfig(n=48)
    est1 = bisect_transition(PI / 6, tol=1e-3, config=cfg)
    est2 = bisect_transition(PI / 6, tol=1e-3, config=cfg)
    lo = stable_invariants(phi_family(PI / 6, est1.theta_low), "moebius", cfg)
    hi = stable_invariants(phi_family(PI / 6, est1.theta_high), "moebius", cfg)
    thetas = np.linspace(0.02, PI / 2 - 0.02, 25)
    sw = sweep("phi", thetas, beta=PI / 6, config=cfg)
    om = [r.omega for r in sw.rows if r.stable]
    single_step = (
        len(om) == 25
        and om == sorted(om)
        and sum(1 for a, b in zip(om, om[1:]) if b > a) == 1
    )
    ok = (
        est1.width <= 1e-3
        and lo.report.omega == 0
        and hi.report.omega == 1
        and (est1.theta_low, est1.theta_high) == (est2.theta_low, est2.theta_high)
        and single_step
    )
    report(
        8,
        ok,
        f"transition bracket ({est1.theta_low:.6f}, {est1.theta_high:.6f}), "
        f"width {est1.width:.2e} <= 1e-3, deterministic, single omega step in the sweep",
    )


def test_criterion_9_projective_circles():
    c = build_complex(SurfaceSpec.named("projective", 10, 10))
    rng = np.random.default_rng(5551)
    ok = True
    for _ in range(50):
        i0 = int(rng.integers(0, 8))
        i1 = int(rng.integers(i0 + 1, min(i0 + 6, 10) + 1))
        j0 = int(rng.integers(0, 8))
        j1 = int(rng.integers(j0 + 1, min(j0 + 6, 10) + 1))
        if i1 - i0 >= 10 or j1 - j0 >= 10:
            continue
        edges = [c.horizontal_edge(i, j0) for i in range(i0, i1)]
        edges += [c.vertical_edge(i1, j) for j in range(j0, j1)]
        edges += [c.horizontal_edge(i, j1) for i in range(i1 - 1, i0 - 1, -1)]
        edges += [c.vertical_edge(i0, j) for j in range(j1 - 1, j0 - 1, -1)]
        res = classify_circle_complement(c, edges)
        ok &= res.n_components == 2
        ok &= sorted(piece.kind for piece in res.pieces) == ["disk", "moebius"]
    mid = classify_circle_complement(c, [c.horizontal_edge(i, 5) for i in range(10)])
    ok &= mid.n_components == 1 and mid.pieces[0].kind == "disk"
    report(
        9,
        ok,
        "50 contractible cycles split into disk + moebius; the midline "
        "cycle leaves a single disk",
    )


def test_criterion_10_conjecture_reporting():
    bp = batch_verify("projective", 200, seed=161803, k_range=(1, 10), size=16)
    bk = batch_verify("klein", 200, seed=141421, k_range=(1, 10), size=16)
    bt = batch_verify("torus", 200, seed=173205, k_range=(1, 10), size=16)
    ok = (
        bp.verdict_mode == "conjecture"
        and bk.verdict_mode == "conjecture"
        and bt.verdict_mode == "report_only"
        and sum(bp.defect_histogram.values()) == 200
        and sum(bk.defect_histogram.values()) == 200
        and sum(bt.defect_histogram.values()) == 200
        and not bp.failures
        and not bk.failures
        and not bt.failures
    )
    report(
        10,
        ok,
        f"projective defects {bp.defect_histogram} and klein defects "
        f"{bk.defect_histogram} emitted as conjecture; torus defects "
        f"{bt.defect_histogram} report-only",
    )
