"""Variational p-capacity of condensers.

cp_p(E, F; Omega) is the infimum of the p-Dirichlet energy over fields that
are 0 on E and 1 on F.  The discrete version minimizes the regularized
energy of the energy module over the free cells, with the plate boundaries
placed on the faces they cut (see the grid module); the reported value is
the raw regularized energy at the final eps (the recorded ``final_eps``
lets callers judge the leftover inflation).

For p != 2 the minimizer is a damped inexact Newton method, one stage per
entry of a continuation schedule driving the smoothing eps down, each stage
warm-started from the last.  A Newton step solves the Hessian system of the
energy module (matrix-free, restricted to the free cells) by
Jacobi-preconditioned CG to a forcing tolerance, then backtracks from the
full step until the Armijo condition holds for the field clipped to [0, 1].
A stage ends when half the Newton decrement, -grad.s / 2, is at most
``rel_tol`` times the energy: the remaining suboptimality, to second order.
There ``iterations`` counts Newton steps and ``energy_history`` holds each
stage's start energy and the energy after each of its steps.
For p = 2 eps only adds the constant eps^2 h^n per cell, so the energy is
one quadratic whose minimizer lies in [0, 1] by the discrete maximum
principle: a single Jacobi-preconditioned conjugate-gradient solve at the
final eps.  There ``iterations`` counts CG steps and ``energy_history``
holds the energy after each, which CG decreases monotonically; the
stopping rule is the relative decrease over a 10-step window.

Closed-form capacities of spherical rings A(x0, r1, r2) serve as oracles:

    p = n:  omega_{n-1} / log^{n-1}(r2/r1)
    p != n: omega_{n-1} * ((n-p) / ((p-1) (r1^t - r2^t)))^{p-1},
            t = (p-n)/(p-1),

positive on both sides of p = n and continuous across it.  A separate
diagnostic bound min(diam E, diam F) / (C * R^{1+p-n}) estimates capacities
from the plate geometry alone; its constant C is a free parameter, so the
bound is reported for comparison, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unused here; kept as a module name because the benchmark's tracer patches it.
from .descent import minimize_projected  # noqa: F401
from .energy import EnergyParams, energy_gradient, energy_hessian, energy_value, quadratic_diagonal
from .exceptions import DomainError
from .grid import Condenser, GridDomain, graph_distance, make_ring_condenser

SPHERE_MEASURE = {2: 2 * math.pi, 3: 4 * math.pi}
# Iterations over which the relative energy decrease is compared with rel_tol.
STALL_WINDOW = 10
# Newton line search: Armijo sufficient-decrease constant and smallest step.
ARMIJO_C1 = 1e-4
MIN_STEP = 1e-10
# Cap on the CG steps of one inexact Newton solve.
NEWTON_CG_STEPS = 1000


@dataclass(frozen=True)
class SolverOptions:
    """Budget and schedule of the capacity solve.

    ``max_iterations`` caps the total across all eps stages: Newton steps
    for p != 2 (each one inner CG solve, capped internally), CG steps for
    p = 2.  ``rel_tol`` is the per-stage stopping threshold: for p != 2 a
    stage ends once half its Newton decrement is at most rel_tol |E|, for
    p = 2 once the energy drops by at most rel_tol |E| over 10 steps.
    ``eps_schedule`` must be strictly decreasing and positive, and p = 2
    solves at its last entry only.  ``step_rule`` keeps its one accepted
    value, "bb-armijo", which names the monotone Armijo backtracking of the
    p != 2 Newton line search.
    """

    max_iterations: int = 40000
    rel_tol: float = 1e-9
    eps_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    step_rule: str = "bb-armijo"

    def __post_init__(self):
        object.__setattr__(self, "eps_schedule", tuple(float(e) for e in self.eps_schedule))
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        sched = self.eps_schedule
        if not sched or any(e <= 0 for e in sched) or any(a >= b for a, b in zip(sched[1:], sched)):
            raise DomainError("eps_schedule must be strictly decreasing and positive")
        if self.step_rule != "bb-armijo":
            raise DomainError(f"unknown step rule {self.step_rule!r}")


@dataclass
class CapacityResult:
    """Capacity value (units length^(n-p)) with solve diagnostics.

    ``energy_history`` concatenates the per-stage monotone energy traces,
    each a start value plus one entry per Newton step (p != 2) or CG step
    (p = 2, one stage at the final eps); ``history_eps`` records the
    smoothing eps in force at each entry.  ``iterations`` is the total
    number of those steps.  ``converged`` means that for p != 2 every stage
    ended on its Newton decrement test, and for p = 2 that the CG stall
    test fired, each within ``max_iterations``.
    """

    value: float
    iterations: int
    final_eps: float
    energy_history: list = field(repr=False)
    history_eps: list = field(repr=False)
    converged: bool


def _distance_init(cond: Condenser) -> np.ndarray:
    """Start field: normalized grid distance, 0 on E rising to 1 on F."""
    grid = cond.domain
    de = graph_distance(grid.mask, cond.E)[grid.mask].astype(float)
    df = graph_distance(grid.mask, cond.F)[grid.mask].astype(float)
    total = de + df
    u0 = np.full(grid.inside_count, 0.5)
    ok = (de >= 0) & (df >= 0) & (total > 0)
    u0[ok] = de[ok] / total[ok]
    u0[de == 0] = 0.0
    return u0


def solve_capacity(cond: Condenser, p: float, opts: SolverOptions | None = None) -> CapacityResult:
    """Minimize the regularized p-energy over fields pinned to 0/1 on the plates.

    For p != 2 runs one damped Newton stage per eps in the schedule,
    warm-starting each from the last, and reports the final stage's energy;
    for p = 2 solves the quadratic once at the final eps.  ``converged`` is
    False when the total iteration budget ran out first, or when a Newton
    line search found no decrease before the stage's decrement test held.
    """
    if not p > 1:
        raise DomainError(f"capacity exponent must satisfy p > 1, got {p}")
    opts = opts or SolverOptions()
    grid = cond.domain
    m = grid.inside_count
    fixed = np.zeros(m, dtype=bool)
    fixed[cond.e_indices] = True
    fixed[cond.f_indices] = True
    free = np.flatnonzero(~fixed)
    base = np.zeros(m)
    base[cond.f_indices] = 1.0
    if free.size == 0:
        history = [energy_value(base, grid, EnergyParams(p, eps)) for eps in opts.eps_schedule]
        return CapacityResult(history[-1], 0, opts.eps_schedule[-1], history, list(opts.eps_schedule), True)
    if p == 2:
        return _solve_quadratic(grid, free, base, opts)
    return _solve_newton(grid, free, _distance_init(cond), p, opts)


def _pcg(apply, rhs: np.ndarray, inv_diag: np.ndarray, max_steps: int, stop):
    """Jacobi-preconditioned CG for apply(x) = rhs, started from x = 0.

    After each step calls stop(alpha, rz, r) with the step length, the
    preconditioned residual product r.z the step used and the new residual.
    Returns (x, steps, stopped); stopped is True when ``stop`` fired or no
    further step was possible (zero residual, or no curvature along the
    search direction of a semidefinite apply).
    """
    x = np.zeros(rhs.size)
    r = rhs.copy()
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    it = 0
    while it < max_steps:
        if rz <= 0.0:
            return x, it, True
        q = apply(d)
        dq = float(d @ q)
        if dq <= 0.0:
            return x, it, True
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
        it += 1
        if stop(alpha, rz, r):
            return x, it, True
        z = inv_diag * r
        rz_new = float(r @ z)
        d *= rz_new / rz
        d += z
        rz = rz_new
    return x, it, False


def _solve_quadratic(grid: GridDomain, free: np.ndarray, base: np.ndarray, opts: SolverOptions) -> CapacityResult:
    """p = 2: Jacobi-preconditioned CG on the free cells at the final eps.

    The energy of base + x is E0 - b.x + x.Ax/2 with A x the energy gradient
    of x alone, so each step lowers it by alpha (r.z)/2; the history tracks
    it that way and the value is the energy of the final field.
    """
    eps = opts.eps_schedule[-1]
    params = EnergyParams(2.0, eps)
    work = np.zeros(grid.inside_count)

    def apply(x: np.ndarray) -> np.ndarray:
        work[free] = x
        return energy_gradient(work, grid, params)[free]

    energy = energy_value(base, grid, params)
    history = [energy]

    def stop(alpha: float, rz: float, r: np.ndarray) -> bool:
        nonlocal energy
        drop = 0.5 * alpha * rz
        energy -= drop
        history.append(energy)
        # A drop below rounding means the field no longer moves.
        return drop <= np.finfo(float).eps * abs(energy) or (
            len(history) > STALL_WINDOW and history[-STALL_WINDOW - 1] - energy <= opts.rel_tol * abs(energy)
        )

    rhs = -energy_gradient(base, grid, params)[free]
    x, it, converged = _pcg(apply, rhs, 1.0 / quadratic_diagonal(grid)[free], opts.max_iterations, stop)
    work[:] = base
    work[free] = x
    return CapacityResult(
        value=energy_value(work, grid, params),
        iterations=it,
        final_eps=eps,
        energy_history=history,
        history_eps=[eps] * len(history),
        converged=converged,
    )


def _newton_step(u: np.ndarray, grad: np.ndarray, grid: GridDomain, params: EnergyParams, free: np.ndarray):
    """Inexact Newton step on the free cells: H s = -grad to a relative residual min(0.1, sqrt|grad|).

    The Hessian's face arrays live only for this call, so a solve holds one
    Hessian at a time.
    """
    apply, diag = energy_hessian(u, grid, params, free)
    norm = float(np.linalg.norm(grad))
    tol = min(0.1, math.sqrt(norm)) * norm
    step, _, _ = _pcg(apply, -grad, 1.0 / diag, NEWTON_CG_STEPS, lambda _a, _rz, r: np.linalg.norm(r) <= tol)
    return step


def _solve_newton(
    grid: GridDomain, free: np.ndarray, u: np.ndarray, p: float, opts: SolverOptions
) -> CapacityResult:
    """p != 2: one damped inexact Newton stage per eps, warm-started from the last.

    Each step solves H s = -grad to the forcing tolerance min(0.1,
    sqrt|grad|) |grad| by Jacobi-preconditioned CG, then backtracks from the
    full step until the Armijo condition holds for the field clipped to
    [0, 1] (clipping never raises the energy, since it shrinks every face
    difference).  A stage ends once half the Newton decrement, -grad.s / 2,
    is at most rel_tol |E|; its last step is still taken.
    """
    history: list = []
    history_eps: list = []
    total = 0
    converged = True
    for eps in opts.eps_schedule:
        params = EnergyParams(p, eps)
        energy = energy_value(u, grid, params)
        history.append(energy)
        history_eps.append(eps)
        done = False
        while not done:
            if total >= opts.max_iterations:
                converged = False
                break
            grad = energy_gradient(u, grid, params)[free]
            step = _newton_step(u, grad, grid, params, free)
            slope = float(grad @ step)
            done = -slope / 2 <= opts.rel_tol * abs(energy)
            t = 1.0
            while slope < 0 and t >= MIN_STEP:
                trial = u.copy()
                trial[free] = np.clip(u[free] + t * step, 0.0, 1.0)
                trial_energy = energy_value(trial, grid, params)
                if trial_energy <= energy + ARMIJO_C1 * t * slope:
                    u, energy = trial, trial_energy
                    total += 1
                    history.append(energy)
                    history_eps.append(eps)
                    break
                t *= 0.5
            else:
                # No measurable decrease along the Newton direction.
                converged = converged and done
                done = True
        if not converged:
            break
    return CapacityResult(
        value=energy,
        iterations=total,
        final_eps=history_eps[-1],
        energy_history=history,
        history_eps=history_eps,
        converged=converged,
    )


def ring_capacity_exact(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form p-capacity of the spherical ring with radii r1 < r2.

    Evaluated via expm1 so the p != n branch stays accurate arbitrarily
    close to p = n, where it matches the logarithmic branch continuously.
    """
    if n not in SPHERE_MEASURE:
        raise DomainError(f"only dimensions 2 and 3 are supported, got n={n}")
    if not (0 < r1 < r2):
        raise DomainError(f"ring radii must satisfy 0 < r1 < r2, got r1={r1}, r2={r2}")
    if not p > 1:
        raise DomainError(f"ring capacity requires p > 1, got {p}")
    omega = SPHERE_MEASURE[n]
    ratio = math.log(r2 / r1)
    if p == n:
        return omega / ratio ** (n - 1)
    t = (p - n) / (p - 1)
    return omega * (t / (r1**t * math.expm1(t * ratio))) ** (p - 1)


def accessibility_lower_bound(
    diam_e: float, diam_f: float, R: float, p: float, n: int, C: float = 1.0
) -> float:
    """Diagnostic capacity lower bound min(diam E, diam F) / (C * R^(1+p-n)).

    The constant C is not pinned down by theory; results are for comparison
    against computed capacities, not ground truth.
    """
    if min(diam_e, diam_f, R, C) <= 0:
        raise DomainError("diameters, radius and constant must all be positive")
    if not n - 1 < p <= n:
        raise DomainError(f"the bound applies for p in (n-1, n], got p={p}, n={n}")
    return min(diam_e, diam_f) / (C * R ** (1 + p - n))


# ---------------------------------------------------------------------------
# Ring benchmarks: solver vs closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingBenchmark:
    """One concentric-ring solve in the box [-half, half]^n at several resolutions."""

    n: int
    p: float
    r1: float
    r2: float
    half: float
    resolutions: tuple

    def __post_init__(self):
        object.__setattr__(self, "resolutions", tuple(int(r) for r in self.resolutions))
        if self.half <= self.r2:
            raise DomainError("benchmark box must contain the outer sphere")


DEFAULT_BENCHMARKS = (
    RingBenchmark(n=2, p=2.0, r1=1.0, r2=math.e, half=3.0, resolutions=(128, 256)),
    RingBenchmark(n=2, p=1.5, r1=1.0, r2=2.0, half=2.5, resolutions=(128, 256)),
    RingBenchmark(n=3, p=2.0, r1=1.0, r2=2.0, half=2.5, resolutions=(32, 64)),
)


def ring_grid(n: int, half: float, res: int) -> GridDomain:
    h = 2 * half / res
    return GridDomain.box(n, (-half,) * n, (res,) * n, h)


def solve_ring(
    n: int, p: float, r1: float, r2: float, half: float, res: int, opts: SolverOptions | None = None
) -> CapacityResult:
    """Solve the concentric ring condenser centered at the origin."""
    grid = ring_grid(n, half, res)
    cond = make_ring_condenser((0.0,) * n, r1, r2, grid)
    return solve_capacity(cond, p, opts)


def calibrate_discretization(benchmarks=DEFAULT_BENCHMARKS, opts: SolverOptions | None = None) -> dict:
    """Measure solver-vs-closed-form relative errors over ring benchmarks.

    Returns per-run records, per-benchmark refinement ratios (coarse error
    over fine error), and tau_disc, the worst relative error observed.  This
    measured tau_disc is what inequality verifications should budget with.
    """
    runs = []
    ratios = []
    tau = 0.0
    for bench in benchmarks:
        errors = []
        for res in bench.resolutions:
            result = solve_ring(bench.n, bench.p, bench.r1, bench.r2, bench.half, res, opts)
            exact = ring_capacity_exact(bench.n, bench.p, bench.r1, bench.r2)
            rel = abs(result.value - exact) / exact
            errors.append(rel)
            tau = max(tau, rel)
            runs.append(
                {
                    "n": bench.n,
                    "p": bench.p,
                    "r1": bench.r1,
                    "r2": bench.r2,
                    "resolution": res,
                    "h": 2 * bench.half / res,
                    "numeric": result.value,
                    "exact": exact,
                    "rel_error": rel,
                    "iterations": result.iterations,
                    "converged": result.converged,
                }
            )
        if len(errors) >= 2 and errors[-1] > 0:
            ratios.append(errors[0] / errors[-1])
    return {"runs": runs, "refinement_ratios": ratios, "tau_disc": tau}
