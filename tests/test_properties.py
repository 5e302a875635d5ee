"""Property-based checks against the exact identities and the reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerpart import (
    SurfaceSpec,
    build_complex,
    check_chi_sigma,
    domain_reports,
    double_cover,
    from_labels,
    invariants,
    omega_via_cover,
    orientability_bits,
)

from reference import RefSurface, ref_closure, ref_invariants

def labellings(max_side=6, max_labels=5):
    @st.composite
    def build(draw):
        W = draw(st.integers(2, max_side))
        H = draw(st.integers(2, max_side))
        k = draw(st.integers(1, max_labels))
        labels = draw(
            st.lists(st.integers(0, k - 1), min_size=W * H, max_size=W * H)
        )
        return W, H, labels

    return build()


@settings(max_examples=120, deadline=None)
@given(labellings())
def test_rectangle_formula_all_labellings(case):
    W, H, labels = case
    p = from_labels(build_complex(SurfaceSpec.named("rectangle", W, H)), labels)
    assert invariants(p).defect == 1


@settings(max_examples=120, deadline=None)
@given(labellings())
def test_moebius_formula_all_labellings(case):
    W, H, labels = case
    p = from_labels(build_complex(SurfaceSpec.named("moebius", W, H)), labels)
    assert invariants(p).defect == 0


@settings(max_examples=60, deadline=None)
@given(labellings(), st.sampled_from(
    ["rectangle", "cylinder", "moebius", "torus", "klein", "projective"]))
def test_chi_sigma_identity_everywhere(case, name):
    W, H, labels = case
    p = from_labels(build_complex(SurfaceSpec.named(name, W, H)), labels)
    assert check_chi_sigma(p).holds


@settings(max_examples=50, deadline=None)
@given(labellings(max_side=5), st.sampled_from(
    ["rectangle", "cylinder", "moebius", "torus", "klein", "projective"]))
def test_matches_reference_oracle(case, name):
    W, H, labels = case
    spec = SurfaceSpec.named(name, W, H)
    p = from_labels(build_complex(spec), labels)
    ref = RefSurface(W, H, spec.x_gluing, spec.y_gluing)
    assert invariants(p).key() == ref_invariants(ref, labels)


@settings(max_examples=50, deadline=None)
@given(labellings(max_side=6), st.sampled_from(["moebius", "klein"]))
def test_orientability_routes_agree(case, name):
    W, H, labels = case
    c = build_complex(SurfaceSpec.named(name, W, H))
    p = from_labels(c, labels)
    cs = double_cover(c)
    assert np.array_equal(omega_via_cover(cs, p), orientability_bits(p))


@settings(max_examples=60, deadline=None)
@given(labellings())
def test_moebius_domain_classifications(case):
    W, H, labels = case
    p = from_labels(build_complex(SurfaceSpec.named("moebius", W, H)), labels)
    bits = orientability_bits(p)
    assert int(np.sum(~bits)) <= 1  # at most one non-orientable domain
    for r in domain_reports(p):
        if r.orientable:
            assert r.genus == 0
        else:
            assert r.crosscaps == 1


@settings(max_examples=60, deadline=None)
@given(labellings(max_side=6))
def test_sigma_index_sum_even(case):
    from eulerpart import boundary_graph

    W, H, labels = case
    p = from_labels(build_complex(SurfaceSpec.named("klein", W, H)), labels)
    bg = boundary_graph(p)
    index_sum = int(np.sum(bg.degree[bg.singular_interior] - 2) + np.sum(bg.degree[bg.singular_boundary]))
    assert index_sum % 2 == 0
    assert bg.sigma == index_sum // 2 >= 0


@pytest.mark.parametrize("name", ["rectangle", "cylinder", "moebius", "torus", "klein", "projective"])
def test_closure_matches_reference_oracle(name):
    # seeded arbitrary labellings: pinched, non-normal and multiply
    # connected domains all occur on grids this small
    for seed in range(40):
        rng = np.random.default_rng(seed)
        W, H = (int(x) for x in rng.integers(2, 7, size=2))
        labels = rng.integers(0, int(rng.integers(1, 6)), size=W * H).tolist()
        spec = SurfaceSpec.named(name, W, H)
        p = from_labels(build_complex(spec), labels)
        ref = RefSurface(W, H, spec.x_gluing, spec.y_gluing)
        got = [(r.chi, r.boundary_circles) for r in domain_reports(p)]
        assert got == ref_closure(ref, labels), (name, seed)
