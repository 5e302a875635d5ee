"""Trigonometric eigenfunctions and their sign-pattern partitions.

Functions are finite sums of separable terms ``c * fx(x) * fy(y)`` with
``fx, fy`` a sine or cosine of an integer frequency plus a phase.  On the
moebius surface the fundamental domain is [0, pi] x [0, pi) with the
reversed seam in y, so admissible functions must satisfy both the
identification f(x, y) = f(pi - x, y + pi) and the Dirichlet condition
f(0, y) = f(pi, y) = 0; on the rectangle [0, pi]^2 they must vanish on
all four sides.  ``symmetry_residual`` measures both on a fixed lattice,
and a residual within ``SYM_TOL`` is the gate of ``rasterize``.

Rasterization samples signs at face centers only.  A sample landing on
the zero set (within ``ZERO_TOL``) raises ``ResolutionError`` rather than
being tie-broken; callers perturb the resolution instead, which keeps the
extracted boundary set an honest primal-edge subgraph.  ``stable_invariants``
runs the rasterization at N, 2N, 4N, ... and accepts once two consecutive
levels agree on (kappa, beta, sigma, omega).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .complexes import ID_DTYPE, MAX_FACES, SurfaceSpec, build_complex
from .errors import InstabilityError, ResolutionError, SymmetryError, integer
from .partition import InvariantReport, Partition, from_labels, invariants

ZERO_TOL = 1e-12                 # |sample| at or below this is a resolution error
SYM_TOL = 1e-9                   # symmetry / Dirichlet residual bound


@dataclass(frozen=True)
class Factor:
    kind: str                    # "sin" or "cos"
    freq: int
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise ValueError(f"factor kind must be sin or cos, got {self.kind!r}")

    def __call__(self, t):
        arg = self.freq * np.asarray(t, dtype=float) + self.phase
        return np.sin(arg) if self.kind == "sin" else np.cos(arg)


@dataclass(frozen=True)
class Term:
    coeff: float
    fx: Factor
    fy: Factor


@dataclass(frozen=True)
class Eigenfunction:
    terms: tuple
    name: str = ""
    # surface -> symmetry residual, kept by the rasterization gate: f does
    # not change, so a ladder of rasterizations computes it once
    _residuals: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def evaluate(f: Eigenfunction, x, y):
    """Sum of c * fx(x) * fy(y) over the terms, numpy-broadcasting."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape, dtype=float)
    for t in f.terms:
        out += t.coeff * t.fx(x) * t.fy(y)
    return out


def phi_family(beta: float, theta: float) -> Eigenfunction:
    """cos(theta) sin(2x) sin(3y) + sin(theta) sin(3x) sin(2y + beta)."""
    return Eigenfunction(
        terms=(
            Term(math.cos(theta), Factor("sin", 2), Factor("sin", 3)),
            Term(math.sin(theta), Factor("sin", 3), Factor("sin", 2, beta)),
        ),
        name=f"phi(beta={beta:.6g},theta={theta:.6g})",
    )


def bands_family(m: int) -> Eigenfunction:
    """sin(m x); deck-invariant on the moebius surface for odd m."""
    return Eigenfunction(
        terms=(Term(1.0, Factor("sin", m), Factor("cos", 0)),),
        name=f"bands(m={m})",
    )


def ex3b_family(theta: float) -> Eigenfunction:
    """cos(theta) sin(x) cos(6y) + sin(theta) sin(6x) cos(y)."""
    return Eigenfunction(
        terms=(
            Term(math.cos(theta), Factor("sin", 1), Factor("cos", 6)),
            Term(math.sin(theta), Factor("sin", 6), Factor("cos", 1)),
        ),
        name=f"ex3b(theta={theta:.6g})",
    )


FAMILIES = {"phi": phi_family, "bands": bands_family, "ex3b": ex3b_family}
#: family name -> its parameters in call order; sweeps vary the last one
FAMILY_PARAMS = {"phi": ("beta", "theta"), "bands": ("m",), "ex3b": ("theta",)}


def family(name: str, params: dict) -> Eigenfunction:
    """The member of a named family; ``params`` keys it does not take are ignored.

    ``m`` must be an integer and ``beta`` / ``theta`` finite real numbers,
    booleans being neither; a value is never truncated or parsed, a wrong
    or missing one raises ``ValueError`` naming the parameter.
    """
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    args = []
    for key in FAMILY_PARAMS[name]:
        value = params.get(key)
        if value is None:
            raise ValueError(f"the {name} family needs {key}")
        what = f"{name} parameter {key}"
        args.append(integer(value, what) if key == "m" else finite_real(value, what))
    return FAMILIES[name](*args)


def finite_real(value, what: str) -> float:
    """``value`` itself if it is a finite real number; booleans, strings,
    NaN and infinities raise ``ValueError`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


#: most doublings a stabilization may ask for.  In the worst case each level
#: steps +10 past exact-zero samples and the next level doubles that, so from
#: the smallest resolution, n = 2, level 7 is 2806² and level 8 is 5622²:
#: one more doubling exceeds ``MAX_FACES`` from every resolution
MAX_REFINE = 7


@dataclass(frozen=True)
class NodalConfig:
    n: int = 64                  # base grid resolution (N x N)
    max_refine: int = 5          # doublings of n before stabilization gives up

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "resolution"))
        object.__setattr__(self, "max_refine", integer(self.max_refine, "max_refine"))
        if self.n < 2:
            raise ValueError("resolution must be at least 2")
        if self.n * self.n > MAX_FACES:
            raise ValueError(
                f"resolution {self.n} gives {self.n * self.n} faces, above the cap of {MAX_FACES}"
            )
        if self.max_refine < 0:
            raise ValueError("max_refine must be non-negative")
        if self.max_refine > MAX_REFINE:
            raise ValueError(
                f"max_refine must be at most {MAX_REFINE}, got {self.max_refine}: a deeper level "
                f"exceeds the cap of {MAX_FACES} faces in the worst case from every resolution"
            )


_SYM_LATTICE = 101


def symmetry_residual(f: Eigenfunction, surface: str) -> float:
    """Largest symmetry / Dirichlet violation on the check lattice."""
    s = np.linspace(0.0, math.pi, _SYM_LATTICE)
    x, y = s[:, None], s[None, :]
    if surface == "moebius":
        parts = [
            evaluate(f, x, y) - evaluate(f, math.pi - x, y + math.pi),
            evaluate(f, 0.0, s),
            evaluate(f, math.pi, s),
        ]
    elif surface == "rectangle":
        parts = [
            evaluate(f, 0.0, s),
            evaluate(f, math.pi, s),
            evaluate(f, s, 0.0),
            evaluate(f, s, math.pi),
        ]
    else:
        raise ValueError(f"symmetry check supports moebius and rectangle, not {surface!r}")
    # np.max keeps a NaN, where the builtin max may drop it
    return float(np.max([np.max(np.abs(part)) for part in parts]))


def rasterize(f: Eigenfunction, surface: str, n: int) -> Partition:
    """Partition an n x n grid by the sign of f at face centers.

    Raises ResolutionError when a face center lands on the zero set, and
    SymmetryError when f fails the surface's symmetry gate: a residual
    above ``SYM_TOL``, or NaN.  Neither builds a complex, so a level a
    ladder steps past takes no slot of the shared complexes.  The residual is
    computed on the first rasterization of f on a surface and kept on f, so
    the levels of a ``stable_invariants`` ladder share one check.
    """
    if surface == "moebius" and n % 2:
        raise ValueError("moebius rasterization needs an even resolution")
    res = f._residuals.get(surface)
    if res is None:
        res = f._residuals[surface] = symmetry_residual(f, surface)
    if not res <= SYM_TOL:
        raise SymmetryError(
            f"{f.name or 'function'} violates the {surface} symmetry: residual {res:.3e}"
        )
    # the spec checks the face cap before the n^2 evaluation
    spec = SurfaceSpec.named(surface, n, n)
    h = math.pi / n
    xc = (np.arange(n) + 0.5) * h
    yc = (np.arange(n) + 0.5) * h
    vals = evaluate(f, xc[None, :], yc[:, None])  # row j, column i
    bad = int(np.sum(np.abs(vals) <= ZERO_TOL))
    if bad:
        raise ResolutionError(
            f"{bad} face-center samples on the zero set at n={n}", n=n, n_bad=bad
        )
    return from_labels(build_complex(spec), (vals > 0).astype(ID_DTYPE).ravel())


def _rasterize_perturbed(f, surface, n, history):
    """Rasterize, stepping the resolution past exact-zero samples.

    A size above ``MAX_FACES`` is never built: the ladder ends there as
    unstable, with the levels it reached.
    """
    step = 2 if surface == "moebius" else 1
    last = None
    for k in range(6):
        size = n + k * step
        if size * size > MAX_FACES:
            raise InstabilityError(
                f"no agreement for {f.name or 'function'} on {surface} below the cap of "
                f"{MAX_FACES} faces, which the {size}x{size} level exceeds: {history}",
                history=history,
            )
        try:
            return rasterize(f, surface, n=size)
        except ResolutionError as e:
            last = e
    raise last


@dataclass(frozen=True)
class StableResult:
    report: InvariantReport
    partition: Partition
    n: int                       # resolution of the accepted level
    levels: tuple                # (n, kappa, beta, sigma, omega) per level


def stable_invariants(f: Eigenfunction, surface: str, config: NodalConfig | None = None) -> StableResult:
    """Invariants at increasing resolution until two levels agree."""
    config = config or NodalConfig()
    history = []
    prev_key = None
    n = config.n
    for _level in range(config.max_refine + 1):
        p = _rasterize_perturbed(f, surface, n, history)
        actual_n = p.complex.spec.width
        rep = invariants(p)
        history.append((actual_n, *rep.key()))
        if prev_key is not None and rep.key() == prev_key:
            return StableResult(report=rep, partition=p, n=actual_n, levels=tuple(history))
        prev_key = rep.key()
        n = 2 * actual_n
    raise InstabilityError(
        f"no agreement for {f.name or 'function'} on {surface} within "
        f"{config.max_refine} refinements: {history}",
        history=history,
    )
