"""Exact Euler-type invariants for partitions of flat quotient surfaces.

The package represents the rectangle, cylinder, Moebius strip, torus,
Klein bottle, and projective plane as quotient grids of unit squares,
turns face labellings into partitions with connected domains, and
computes the invariants kappa, beta, sigma, omega, delta as exact
integers.  On the rectangle the identity kappa = 1 + beta + sigma holds;
on the Moebius strip kappa = omega + beta + sigma.  Both are verified
here, together with normalization and cut surgeries that preserve delta,
orientation double covers, nodal partitions of trigonometric
eigenfunctions, and the orientability transition of the phi family.
"""

from .complexes import (
    SURFACES,
    CellComplex,
    SurfaceSpec,
    boundary_components,
    build_complex,
)
from .cover import (
    CoverReport,
    CoverStructure,
    cover_bookkeeping,
    double_cover,
    lift_partition,
    omega_via_cover,
)
from .errors import (
    CutError,
    EulerPartError,
    InstabilityError,
    InvariantViolation,
    ResolutionError,
    SymmetryError,
)
from .explore import (
    BatchResult,
    RandomSpec,
    SweepResult,
    TransitionEstimate,
    batch_verify,
    bisect_transition,
    random_partition,
    sweep,
)
from .nodal import (
    Eigenfunction,
    Factor,
    NodalConfig,
    StableResult,
    Term,
    bands_family,
    evaluate,
    ex3b_family,
    phi_family,
    rasterize,
    stable_invariants,
)
from .partition import (
    BoundaryGraph,
    ChiSigmaReport,
    ComplementClass,
    CutPath,
    DomainReport,
    InvariantReport,
    Partition,
    Verdict,
    boundary_graph,
    check_chi_sigma,
    classify_circle_complement,
    cut,
    domain_reports,
    from_labels,
    invariants,
    is_normal,
    normalize,
    orientability_bits,
    plan_cut,
    refine,
    verify_euler,
)
from .render import render, render_ppm, render_svg

__version__ = "0.1.0"
