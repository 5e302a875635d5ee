import dataclasses
import math
import re

import numpy as np
import pytest

from eulerpart import (
    Eigenfunction,
    Factor,
    InstabilityError,
    NodalConfig,
    ResolutionError,
    SymmetryError,
    Term,
    bands_family,
    boundary_graph,
    check_chi_sigma,
    domain_reports,
    evaluate,
    ex3b_family,
    phi_family,
    rasterize,
    stable_invariants,
    verify_euler,
)
from eulerpart.explore import sweep
from eulerpart.nodal import SYM_TOL, family, symmetry_residual

PI = math.pi


# -- evaluation ---------------------------------------------------------------


def test_bands_pointwise():
    f = bands_family(3)
    assert evaluate(f, PI / 2, 0.37) == pytest.approx(-1.0, abs=1e-12)
    assert evaluate(f, PI / 6, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_phi_theta_zero_is_first_mode():
    f = phi_family(0.5, 0.0)
    xs = np.linspace(0.1, 3.0, 7)
    ys = np.linspace(0.1, 3.0, 7)
    expect = np.sin(2 * xs)[:, None] * np.sin(3 * ys)[None, :]
    got = evaluate(f, xs[:, None], ys[None, :])
    assert np.allclose(got, expect, atol=1e-12)


def test_phi_deck_invariance_pointwise():
    f = phi_family(PI / 5, 0.8)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, PI, 50)
    y = rng.uniform(0, PI, 50)
    assert np.max(np.abs(evaluate(f, x, y) - evaluate(f, PI - x, y + PI))) < 1e-12


def test_evaluate_broadcasts():
    f = ex3b_family(0.3)
    out = evaluate(f, np.zeros((4, 1)), np.linspace(0, 1, 5)[None, :])
    assert out.shape == (4, 5)


# -- symmetry gate ------------------------------------------------------------


def test_named_families_pass_symmetry():
    assert symmetry_residual(phi_family(PI / 6, 1.0), "moebius") <= SYM_TOL
    assert symmetry_residual(ex3b_family(0.4 * PI), "moebius") <= SYM_TOL
    assert symmetry_residual(bands_family(3), "moebius") <= SYM_TOL
    assert symmetry_residual(bands_family(5), "moebius") <= SYM_TOL


def test_even_bands_fail_deck_invariance():
    assert not symmetry_residual(bands_family(4), "moebius") <= SYM_TOL


def test_mixed_term_breaks_deck_invariance():
    f = Eigenfunction(
        terms=(
            Term(1.0, Factor("sin", 2), Factor("sin", 3)),
            Term(0.1, Factor("sin", 1), Factor("sin", 1)),
        )
    )
    assert symmetry_residual(f, "moebius") == pytest.approx(0.2, abs=1e-12)
    assert not symmetry_residual(f, "moebius") <= SYM_TOL


def _meshgrid_residual(f, surface):
    s = np.linspace(0.0, PI, 101)
    x, y = np.meshgrid(s, s, indexing="ij")
    if surface == "moebius":
        parts = [evaluate(f, x, y) - evaluate(f, PI - x, y + PI), evaluate(f, 0.0, s), evaluate(f, PI, s)]
    else:
        parts = [evaluate(f, 0.0, s), evaluate(f, PI, s), evaluate(f, s, 0.0), evaluate(f, s, PI)]
    return float(np.max([np.max(np.abs(part)) for part in parts]))


@pytest.mark.parametrize("surface", ["moebius", "rectangle"])
@pytest.mark.parametrize("f", [
    phi_family(0.5236, 1.2), phi_family(0.3, 0.0), bands_family(3), bands_family(4),
    ex3b_family(1.2566), Eigenfunction((Term(math.nan, Factor("sin", 3), Factor("cos", 0)),)),
], ids=["phi", "phi-theta0", "bands3", "bands4", "ex3b", "nan"])
def test_symmetry_residual_matches_a_meshgrid_lattice(f, surface):
    got, expected = symmetry_residual(f, surface), _meshgrid_residual(f, surface)
    assert (math.isnan(got) and math.isnan(expected)) or abs(got - expected) <= 1e-15


def test_rectangle_dirichlet_gate():
    good = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 3)),))
    assert symmetry_residual(good, "rectangle") <= SYM_TOL
    bad = Eigenfunction(terms=(Term(1.0, Factor("cos", 2), Factor("sin", 3)),))
    assert not symmetry_residual(bad, "rectangle") <= SYM_TOL


def test_rasterize_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        rasterize(bands_family(4), "moebius", 12)


def test_a_ladder_checks_the_symmetry_gate_once(monkeypatch):
    import eulerpart.nodal

    residuals, attempts, built = [], [], []
    residual, raster, build = eulerpart.nodal.symmetry_residual, eulerpart.nodal.rasterize, eulerpart.nodal.build_complex

    def counting_residual(f, surface):
        residuals.append(surface)
        return residual(f, surface)

    def counting_rasterize(f, surface, n):
        attempts.append(n)
        return raster(f, surface, n)

    def counting_build(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(eulerpart.nodal, "symmetry_residual", counting_residual)
    monkeypatch.setattr(eulerpart.nodal, "rasterize", counting_rasterize)
    monkeypatch.setattr(eulerpart.nodal, "build_complex", counting_build)
    # the 5x5 level samples the zero set and steps to 6x6, then the ladder
    # refines: every attempt rasterizes the one function
    f = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 2)),))
    sr = stable_invariants(f, "rectangle", NodalConfig(n=5))
    assert attempts[:2] == [5, 6] and len(attempts) == len(sr.levels) + 1
    assert residuals == ["rectangle"]
    # a direct call keeps the gate: a new function is checked once more
    rasterize(bands_family(3), "moebius", 12)
    assert residuals == ["rectangle", "moebius"]
    # a function that fails the gate fails it before any complex is built,
    # at every call, and is checked once
    del built[:]
    bad = bands_family(4)
    for _ in range(2):
        with pytest.raises(SymmetryError, match="violates the moebius symmetry"):
            stable_invariants(bad, "moebius", NodalConfig(n=12))
    assert built == [] and residuals == ["rectangle", "moebius", "moebius"]


# -- rasterization ------------------------------------------------------------


def test_bands3_rasterized():
    p = rasterize(bands_family(3), "moebius", 60)
    assert p.n_domains == 2
    assert verify_euler(p).status == "pass"


def test_rasterize_requires_even_n_on_moebius():
    with pytest.raises(ValueError):
        rasterize(bands_family(3), "moebius", 61)


def test_exact_zero_sample_raises():
    # sin(2y) vanishes at the middle face-center row of an odd grid
    f = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 2)),))
    with pytest.raises(ResolutionError):
        rasterize(f, "rectangle", 5)
    # the stabilizer steps past the bad resolution instead of failing
    sr = stable_invariants(f, "rectangle", NodalConfig(n=5))
    assert sr.report.key() == (4, 0, 3, 0)


def test_a_level_with_a_zero_sample_builds_no_complex(monkeypatch):
    import eulerpart.nodal

    built, build = [], eulerpart.nodal.build_complex

    def counting_build(spec):
        built.append((spec.width, spec.height))
        return build(spec)

    monkeypatch.setattr(eulerpart.nodal, "build_complex", counting_build)
    # 15x15 samples sin(2x) at x = pi/2 and is stepped past to 16x16
    f = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 2)),))
    sr = stable_invariants(f, "rectangle", NodalConfig(n=15))
    assert [n for n, *_ in sr.levels] == [16, 32]
    assert built == [(16, 16), (32, 32)]


def test_sign_rasterization_nu_even():
    for theta in (0.3, 0.9, 1.2):
        p = rasterize(phi_family(PI / 6, theta), "moebius", 48)
        bg = boundary_graph(p)
        nu = bg.degree[(bg.degree > 0) & ~p.complex.vertex_is_boundary]
        assert np.all((nu == 2) | (nu == 4))


# -- stabilization ------------------------------------------------------------


def test_bands5_stable():
    sr = stable_invariants(bands_family(5), "moebius", NodalConfig(n=20))
    assert sr.report.key() == (3, 2, 0, 1)
    assert sr.n == 2 * sr.levels[-2][0]


def test_phi_small_theta_orientable():
    sr = stable_invariants(phi_family(PI / 6, 0.1), "moebius", NodalConfig(n=48))
    assert sr.report.omega == 0
    assert sr.report.defect == 0


def test_phi_figure_fixture():
    sr = stable_invariants(phi_family(PI / 3, 0.4 * PI), "moebius", NodalConfig(n=128))
    bg = boundary_graph(sr.partition)
    assert sorted(bg.degree[bg.singular_interior].tolist()) == [4, 4]
    assert len(bg.singular_boundary) == 4
    assert sr.report.sigma == 4
    assert sr.report.defect == 0


def test_ex3b_fixture():
    sr = stable_invariants(ex3b_family(0.4 * PI), "moebius", NodalConfig(n=128))
    assert sr.report.kappa == 4
    assert sr.report.omega == 1
    reps = domain_reports(sr.partition)
    bands = [r for r in reps if not r.orientable]
    assert len(bands) == 1
    assert (bands[0].crosscaps, bands[0].boundary_circles) == (1, 3)
    disks = [r for r in reps if r.orientable and (r.chi, r.boundary_circles) == (1, 1)]
    assert len(disks) >= 1


def test_rectangle_fixture_stable():
    f = Eigenfunction(terms=(Term(1.0, Factor("sin", 2), Factor("sin", 3)),))
    sr = stable_invariants(f, "rectangle", NodalConfig(n=60))
    assert sr.report.key() == (6, 0, 5, 0)
    assert sr.report.defect == 1


def test_stabilization_idempotent():
    cfg = NodalConfig(n=60)
    sr = stable_invariants(bands_family(3), "moebius", cfg)
    again = stable_invariants(bands_family(3), "moebius", NodalConfig(n=sr.n))
    assert again.report.key() == sr.report.key()


def test_instability_reported():
    with pytest.raises(InstabilityError):
        stable_invariants(bands_family(3), "moebius", NodalConfig(n=8, max_refine=0))


def test_chi_sigma_on_stable_fixtures():
    for f, surf, n in (
        (bands_family(3), "moebius", 30),
        (phi_family(PI / 3, 0.4 * PI), "moebius", 128),
        (ex3b_family(0.4 * PI), "moebius", 128),
    ):
        sr = stable_invariants(f, surf, NodalConfig(n=n))
        assert check_chi_sigma(sr.partition).holds


def test_nodal_config_holds_only_resolution_and_refinement():
    # the tolerances are module constants, not settings
    assert [f.name for f in dataclasses.fields(NodalConfig)] == ["n", "max_refine"]
    assert NodalConfig() == NodalConfig(n=64, max_refine=5)
    with pytest.raises(ValueError, match="max_refine must be non-negative"):
        NodalConfig(max_refine=-1)
    with pytest.raises(ValueError, match="resolution must be at least 2"):
        NodalConfig(n=1)


def _worst_case_side(n, levels):
    # each level steps +10 past exact-zero samples; the next doubles that
    side = n + 10
    for _ in range(levels):
        side = 2 * side + 10
    return side


def test_max_refine_is_capped_from_above():
    # rejection only: constructing a config allocates nothing
    from eulerpart.complexes import MAX_FACES
    from eulerpart.nodal import MAX_REFINE

    # the cap is the deepest level whose worst case from the smallest
    # resolution, n = 2, still fits; the default ladder fits too
    assert _worst_case_side(2, MAX_REFINE) ** 2 <= MAX_FACES < _worst_case_side(2, MAX_REFINE + 1) ** 2
    assert _worst_case_side(64, 5) == 2678 and 2678 ** 2 <= MAX_FACES
    assert NodalConfig(n=64, max_refine=MAX_REFINE).max_refine == MAX_REFINE
    for depth in (MAX_REFINE + 1, 40, 10 ** 9):
        with pytest.raises(ValueError, match=f"max_refine must be at most {MAX_REFINE}, got {depth}"):
            NodalConfig(max_refine=depth)


def test_nodal_config_rejects_a_resolution_above_the_face_cap():
    from eulerpart.complexes import MAX_FACES

    side = math.isqrt(MAX_FACES)
    assert NodalConfig(n=side).n == side
    with pytest.raises(ValueError, match=f"resolution {side + 1} gives {(side + 1) ** 2} faces"):
        NodalConfig(n=side + 1)


def test_perturbed_levels_above_the_face_cap_are_never_built(monkeypatch):
    import eulerpart.complexes
    import eulerpart.nodal

    for module in (eulerpart.complexes, eulerpart.nodal):
        monkeypatch.setattr(module, "MAX_FACES", 100 ** 2)
    tried = []

    def always_on_the_zero_set(f, surface, n):
        tried.append(n)
        raise ResolutionError(f"zero sample at n={n}", n=n, n_bad=1)

    monkeypatch.setattr(eulerpart.nodal, "rasterize", always_on_the_zero_set)
    with pytest.raises(InstabilityError, match="the 102x102 level exceeds") as e:
        stable_invariants(bands_family(3), "moebius", NodalConfig(n=96))
    assert tried == [96, 98, 100]
    assert e.value.history == []


def _via_sweep(name, params):
    varied = params.get("m", params.get("theta"))
    return sweep(name, [varied], beta=params.get("beta"), config=NodalConfig(n=16, max_refine=0))


@pytest.mark.parametrize("build", [family, _via_sweep], ids=["family", "sweep"])
@pytest.mark.parametrize("name,params,message", [
    ("nope", {"theta": 0.3}, "unknown family 'nope'"),
    ("phi", {"theta": 1.2}, "the phi family needs beta"),
    ("bands", {"m": 3.7}, "bands parameter m must be an integer, got 3.7"),
    ("phi", {"beta": "0.5", "theta": 1.2}, "phi parameter beta must be a number, got '0.5'"),
    ("ex3b", {"theta": True}, "ex3b parameter theta must be a number, got True"),
    ("phi", {"beta": math.nan, "theta": 1.2}, "phi parameter beta must be finite, got nan"),
    ("ex3b", {"theta": -math.inf}, "ex3b parameter theta must be finite, got -inf"),
], ids=["unknown", "missing", "float-m", "string-beta", "bool-theta", "nan-beta", "inf-theta"])
def test_family_parameters_are_checked_not_coerced(build, name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(name, params)


def test_nan_residual_fails_the_symmetry_gate():
    f = Eigenfunction((Term(math.nan, Factor("sin", 3), Factor("cos", 0)),), name="nan")
    assert math.isnan(symmetry_residual(f, "moebius"))
    assert not symmetry_residual(f, "moebius") <= SYM_TOL
    with pytest.raises(SymmetryError, match="residual nan"):
        rasterize(f, "moebius", 16)


def test_stable_invariants_builds_each_resolution_once(monkeypatch):
    from eulerpart import complexes

    built = []
    fresh = complexes._build_complex

    def counting(spec):
        built.append(spec)
        return fresh(spec)

    monkeypatch.setattr(complexes, "_build_complex", counting)
    complexes._shared_complex.cache_clear()
    cfg = NodalConfig(n=20)
    first = stable_invariants(bands_family(3), "moebius", cfg)
    second = stable_invariants(bands_family(3), "moebius", cfg)
    assert first.levels == second.levels and len(first.levels) >= 2
    assert sorted(s.width for s in built) == [level[0] for level in first.levels]
    assert second.partition.complex is first.partition.complex
