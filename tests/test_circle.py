import numpy as np
import pytest

from eulerpart import CutError, SurfaceSpec, build_complex, classify_circle_complement


def block_cycle(c, i0, j0, i1, j1):
    edges = [c.horizontal_edge(i, j0) for i in range(i0, i1)]
    edges += [c.vertical_edge(i1, j) for j in range(j0, j1)]
    edges += [c.horizontal_edge(i, j1) for i in range(i1 - 1, i0 - 1, -1)]
    edges += [c.vertical_edge(i0, j) for j in range(j1 - 1, j0 - 1, -1)]
    return edges


@pytest.fixture(scope="module")
def proj():
    return build_complex(SurfaceSpec.named("projective", 8, 8))


def test_contractible_cycle_disk_plus_moebius(proj):
    res = classify_circle_complement(proj, block_cycle(proj, 2, 2, 4, 4))
    assert res.n_components == 2
    disk, band = res.pieces
    assert (disk.kind, disk.chi, disk.orientable) == ("disk", 1, True)
    assert (band.kind, band.chi, band.orientable) == ("moebius", 0, False)
    assert disk.faces == 4 and band.faces == 60


def test_horizontal_midline_single_disk(proj):
    cyc = [proj.horizontal_edge(i, 4) for i in range(8)]
    res = classify_circle_complement(proj, cyc)
    assert res.n_components == 1
    assert res.pieces[0].kind == "disk"
    assert res.pieces[0].faces == 64


def test_vertical_midline_single_disk(proj):
    cyc = [proj.vertical_edge(4, j) for j in range(8)]
    res = classify_circle_complement(proj, cyc)
    assert res.n_components == 1


def test_offcenter_line_pair_closes_into_separating_cycle(proj):
    # the reversed seam sends (8,3) to (0,5), so the lines y=3 and y=5
    # close into one cycle; it bounds a band around the one-sided core
    cyc = [proj.horizontal_edge(i, 3) for i in range(8)]
    cyc += [proj.horizontal_edge(i, 5) for i in range(8)]
    res = classify_circle_complement(proj, cyc)
    assert res.n_components == 2
    disk, band = res.pieces
    assert disk.kind == "disk" and disk.faces == 48
    assert band.kind == "moebius" and band.faces == 16


def test_single_offcenter_line_is_not_closed(proj):
    with pytest.raises(CutError):
        classify_circle_complement(proj, [proj.horizontal_edge(i, 3) for i in range(8)])


def test_random_blocks_all_dichotomous(proj):
    rng = np.random.default_rng(12)
    for _ in range(50):
        i0 = int(rng.integers(0, 6))
        i1 = int(rng.integers(i0 + 1, min(i0 + 5, 8) + 1))
        j0 = int(rng.integers(0, 6))
        j1 = int(rng.integers(j0 + 1, min(j0 + 5, 8) + 1))
        if i1 - i0 >= 8 or j1 - j0 >= 8:
            continue
        res = classify_circle_complement(proj, block_cycle(proj, i0, j0, i1, j1))
        assert res.n_components == 2
        kinds = sorted(p.kind for p in res.pieces)
        assert kinds == ["disk", "moebius"]


def test_rejects_open_path(proj):
    with pytest.raises(CutError):
        classify_circle_complement(proj, [proj.horizontal_edge(i, 4) for i in range(3)])


def test_rejects_non_simple_cycle(proj):
    # figure-eight through a shared vertex
    cyc = block_cycle(proj, 1, 1, 3, 3) + block_cycle(proj, 3, 3, 5, 5)
    with pytest.raises(CutError):
        classify_circle_complement(proj, cyc)


def test_rejects_wrong_surface():
    c = build_complex(SurfaceSpec.named("torus", 6, 6))
    with pytest.raises(ValueError):
        classify_circle_complement(c, block_cycle(c, 1, 1, 3, 3))


def _fake_reports(classes):
    from types import SimpleNamespace

    return [
        SimpleNamespace(n_faces=1, chi=2 - q - (g if o else c), orientable=o, boundary_circles=q,
                        classification=f"S({0 if o else 1},{g if o else c},{q})")
        for o, g, c, q in classes
    ]


@pytest.mark.parametrize("classes", [
    [(True, 0, None, 2)],                          # an annulus
    [(True, 0, None, 1), (True, 0, None, 1)],      # two disks
    [(False, None, 1, 1)],                         # a Moebius strip alone
    [(True, 0, None, 1), (False, None, 2, 1)],     # a disk and a Klein bottle minus a disk
    [(True, 0, None, 1), (False, None, 1, 1), (True, 0, None, 1)],
], ids=["annulus", "two-disks", "band-alone", "disk-and-klein", "three-pieces"])
def test_complement_outside_the_dichotomy_is_a_violation(classes, proj, monkeypatch):
    import eulerpart.partition
    from eulerpart import InvariantViolation

    monkeypatch.setattr(eulerpart.partition, "domain_reports", lambda p: _fake_reports(classes))
    with pytest.raises(InvariantViolation, match="not a disk or a disk and a Moebius strip"):
        classify_circle_complement(proj, block_cycle(proj, 2, 2, 4, 4))


def test_disk_comes_first_when_the_band_holds_face_zero(proj):
    from eulerpart import domain_reports, from_labels

    cyc = block_cycle(proj, 2, 2, 4, 4)
    p = from_labels(proj, np.zeros(proj.n_faces, dtype=int), walls=cyc)
    assert [r.classification for r in domain_reports(p)] == ["S(1,1,1)", "S(0,0,1)"]
    res = classify_circle_complement(proj, cyc)
    assert [(x.kind, x.faces, x.chi, x.boundary_circles) for x in res.pieces] == [
        ("disk", 4, 1, 1), ("moebius", 60, 0, 1)]
