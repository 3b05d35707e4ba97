"""Variational p-capacity of condensers.

cp_p(E, F; Omega) is the infimum of the p-Dirichlet energy over fields that
are 0 on E and 1 on F.  The discrete version minimizes the regularized
energy of the energy module over the free cells, with the plate boundaries
placed on the faces they cut (see the grid module); the reported value is
the raw regularized energy at the solver's eps (the recorded ``final_eps``
lets callers judge the leftover inflation).

For p != 2 the minimizer is a damped inexact Newton method at the one
smoothing eps of the solver options, started from the normalized grid
distance field.  Each step takes the gradient and the Hessian on the free
cells from one ``FreeEnergy.derivatives`` call (the energy module's
per-solve object, built once), solves H s = -grad by Jacobi-preconditioned
CG, then backtracks from the full step until the Armijo condition holds
for the field clipped to [0, 1]; energy values sum the whole grid.  The
solve ends when half the Newton decrement, -grad.s / 2, is at most
``rel_tol`` times the energy: the remaining suboptimality, to second
order.  The CG runs to a forcing tolerance, or stops earlier once that
test is sure to hold: from CG's start at 0, its model drops alpha (r.z)/2
add up to -grad.s / 2, and the last 10 drops estimate what further steps
would add (Hestenes-Stiefel; Strakos and Tichy, BIT 42, 2002).  Only the
certifying last step can stop that way.  There ``iterations`` counts
Newton steps and ``energy_history`` holds the start energy and the energy
after each step.
For p = 2 eps only adds the constant eps^2 h^n per cell, so the energy is
one quadratic whose minimizer lies in [0, 1] by the discrete maximum
principle: one exact Newton step from the plate field, with the same
Hessian operator and CG as the p != 2 steps, the CG run to convergence
instead of to a forcing tolerance.  There ``iterations`` counts CG steps
and ``energy_history`` holds the energy after each, which CG decreases
monotonically; the stopping rule is the relative decrease over a 10-step
window.  Every result carries its CG step total and its last decrement
(-grad.s / 2, or the last 10-step drop for p = 2), the solver's share of
the error.

Closed-form capacities of spherical rings A(x0, r1, r2) serve as oracles:

    p = n:  omega_{n-1} / log^{n-1}(r2/r1)
    p != n: omega_{n-1} * ((n-p) / ((p-1) (r1^t - r2^t)))^{p-1},
            t = (p-n)/(p-1),

positive on both sides of p = n and continuous across it.  A separate
diagnostic bound min(diam E, diam F) / R^{1+p-n} estimates capacities from
the plate geometry alone.  It holds up to a constant C that theory does not
pin down, so it is computed at C = 1 and reported for comparison, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Unused here; kept as module names because the benchmark's tracer patches them.
from .descent import minimize_projected  # noqa: F401
from .energy import energy_gradient  # noqa: F401
from .energy import EnergyParams, FreeEnergy, energy_value
from .exceptions import DomainError
from .grid import Condenser, GridDomain, check_ring_radii, graph_distance, make_ring_condenser

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
    """Budget, stopping threshold and smoothing of the capacity solve.

    ``max_iterations`` caps the Newton steps for p != 2 (each one inner CG
    solve, capped internally) and the CG steps for p = 2.  ``rel_tol`` is
    the stopping threshold: for p != 2 the solve ends once half the Newton
    decrement is at most rel_tol |E|, and the inner CG of that last step
    stops as soon as its drops show the test will hold; for p = 2 the solve
    ends once the energy drops by at most rel_tol |E| over 10 steps.
    ``eps`` is the smoothing of the regularized energy, positive and finite.
    """

    max_iterations: int = 40000
    rel_tol: float = 1e-9
    eps: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "eps", float(self.eps))
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be positive")
        if not 0 < self.eps < math.inf:
            raise DomainError("eps must be positive and finite")


@dataclass
class CapacityResult:
    """Capacity value (units length^(n-p)) with solve diagnostics.

    ``energy_history`` is the monotone energy trace of the solve: a start
    value plus one entry per Newton step (p != 2) or CG step (p = 2), all
    at ``final_eps``, the smoothing eps of the solve; ``history_eps`` lists
    that eps once per entry.  ``iterations`` is the number of those steps,
    ``cg_steps`` the total of inner CG steps.  ``decrement`` is the
    solver's own error estimate: for p != 2 half the last Newton decrement,
    -grad.s / 2, for p = 2 the energy drop over the last 10 CG steps.
    ``converged`` means that for p != 2 the decrement test held (decrement
    at most rel_tol |E|), and for p = 2 that the CG stall test fired, each
    within ``max_iterations``.
    """

    value: float
    iterations: int
    final_eps: float
    energy_history: list = field(repr=False)
    converged: bool
    cg_steps: int = 0
    decrement: float = 0.0

    @property
    def history_eps(self) -> list:
        return [self.final_eps] * len(self.energy_history)


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

    For p != 2 runs damped Newton from the distance field, for p = 2 solves
    the quadratic once, both at ``opts.eps``.  ``converged`` is False when
    the iteration budget ran out first, or when a Newton line search found
    no decrease before the decrement test held.
    """
    EnergyParams(p)  # DomainError unless p > 1
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
        energy = energy_value(base, grid, EnergyParams(p, opts.eps))
        return CapacityResult(energy, 0, opts.eps, [energy], True)
    if p == 2:
        return _solve_quadratic(grid, free, base, opts)
    return _solve_newton(grid, free, _distance_init(cond), p, opts)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x.y summed by numpy's own loop, not BLAS.

    The CG reductions are short vectors where a threaded BLAS dot gains
    nothing and, on a loaded machine, waits for its worker threads.
    """
    return float(np.einsum("i,i->", x, y))


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
    rz = _dot(r, z)
    it = 0
    while it < max_steps:
        if rz <= 0.0:
            return x, it, True
        q = apply(d)
        dq = _dot(d, q)
        if dq <= 0.0:
            return x, it, True
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
        it += 1
        if stop(alpha, rz, r):
            return x, it, True
        z = inv_diag * r
        rz_new = _dot(r, z)
        d *= rz_new / rz
        d += z
        rz = rz_new
    return x, it, False


def _solve_quadratic(grid: GridDomain, free: np.ndarray, base: np.ndarray, opts: SolverOptions) -> CapacityResult:
    """p = 2: one exact Newton step from the plate field.

    The energy is quadratic, so its Hessian on the free cells is the
    constant sparse graph Laplacian H1, filled once, and base + s minimizes
    it for the s solving H s = -grad.  The energy of base + x is
    E0 + grad.x + x.Hx/2, so each CG step lowers it by alpha (r.z)/2; the
    history tracks it that way, the CG runs until that drop stalls, and the
    value is the energy of the final field.
    """
    params = EnergyParams(2.0, opts.eps)
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

    # Built inline: only the filled Hessian outlives the call, and it is freed before the final full-grid energy.
    grad, apply, diag = FreeEnergy(grid, free, params).derivatives(base)
    step, it, converged = _pcg(apply, -grad, 1.0 / diag, opts.max_iterations, stop)
    del apply, diag
    u = base.copy()
    u[free] += step
    window_drop = history[max(0, it - STALL_WINDOW)] - energy
    return CapacityResult(energy_value(u, grid, params), it, opts.eps, history, converged, it, window_drop)


def _solve_newton(
    grid: GridDomain, free: np.ndarray, u: np.ndarray, p: float, opts: SolverOptions
) -> CapacityResult:
    """p != 2: damped inexact Newton at ``opts.eps``, started from u.

    Each step solves H s = -grad to the forcing tolerance min(0.1, |grad|)
    |grad| by Jacobi-preconditioned CG, which keeps the local convergence
    quadratic, then backtracks from the full step until the Armijo
    condition holds for the field clipped to [0, 1] (clipping never raises
    the energy, since it shrinks every face difference).  The solve ends
    once half the Newton decrement, -grad.s / 2, is at most rel_tol |E|;
    its last step is still taken.  CG started at 0 has -grad.s / 2 equal to
    the sum of its drops alpha (r.z)/2, which only grows, so the CG also
    stops once that sum plus the last ``STALL_WINDOW`` drops (an estimate of
    what is left) is within rel_tol |E|: the decrement test then holds, and
    the step is the last.  ``converged`` certifies that test.
    """
    params = EnergyParams(p, opts.eps)
    free_energy = FreeEnergy(grid, free, params)
    energy = energy_value(u, grid, params)
    history = [energy]
    converged = False
    cg_steps = 0
    decrement = math.inf
    while not converged and len(history) <= opts.max_iterations:
        grad, apply, diag = free_energy.derivatives(u)
        norm = float(np.linalg.norm(grad))
        tol = min(0.1, norm) * norm
        threshold = opts.rel_tol * abs(energy)
        drops = []

        def stop(alpha: float, rz: float, r: np.ndarray) -> bool:
            drops.append(0.5 * alpha * rz)
            return _dot(r, r) <= tol * tol or (
                len(drops) >= STALL_WINDOW and sum(drops) + sum(drops[-STALL_WINDOW:]) <= threshold
            )

        step, it, _ = _pcg(apply, -grad, 1.0 / diag, NEWTON_CG_STEPS, stop)
        # A solve holds one Hessian at a time.
        del apply, diag
        cg_steps += it
        slope = float(grad @ step)
        decrement = -slope / 2
        converged = decrement <= threshold
        t = 1.0
        while slope < 0 and t >= MIN_STEP:
            trial = u.copy()
            trial[free] = np.clip(u[free] + t * step, 0.0, 1.0)
            trial_energy = energy_value(trial, grid, params)
            if trial_energy <= energy + ARMIJO_C1 * t * slope:
                u, energy = trial, trial_energy
                history.append(energy)
                break
            t *= 0.5
        else:
            # No measurable decrease along the Newton direction.
            break
    return CapacityResult(energy, len(history) - 1, opts.eps, history, converged, cg_steps, decrement)


def ring_capacity_exact(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form p-capacity of the spherical ring with radii r1 < r2.

    Evaluated via expm1 so the p != n branch stays accurate arbitrarily
    close to p = n, where it matches the logarithmic branch continuously.
    """
    if n not in SPHERE_MEASURE:
        raise DomainError(f"only dimensions 2 and 3 are supported, got n={n}")
    check_ring_radii(r1, r2)
    EnergyParams(p)  # DomainError unless p > 1
    omega = SPHERE_MEASURE[n]
    ratio = math.log(r2 / r1)
    if p == n:
        return omega / ratio ** (n - 1)
    t = (p - n) / (p - 1)
    return omega * (t / (r1**t * math.expm1(t * ratio))) ** (p - 1)


def accessibility_lower_bound(diam_e: float, diam_f: float, R: float, p: float, n: int) -> float:
    """Diagnostic capacity lower bound min(diam E, diam F) / R^(1+p-n), for p in (n-1, n].

    The bound holds up to a constant C that theory does not pin down; it is
    given at C = 1, for comparison against computed capacities, not as
    ground truth.
    """
    if min(diam_e, diam_f, R) <= 0:
        raise DomainError("diameters and radius must all be positive")
    if not n - 1 < p <= n:
        raise DomainError(f"the bound applies for p in (n-1, n], got p={p}, n={n}")
    return min(diam_e, diam_f) / R ** (1 + p - n)


# ---------------------------------------------------------------------------
# Ring benchmarks: solver vs closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingBenchmark:
    """One concentric-ring solve in the box [-half, half]^n at several resolutions (p > 1, 0 < r1 < r2 < half)."""

    n: int
    p: float
    r1: float
    r2: float
    half: float
    resolutions: tuple

    def __post_init__(self):
        object.__setattr__(self, "resolutions", tuple(int(r) for r in self.resolutions))
        EnergyParams(self.p)
        check_ring_radii(self.r1, self.r2)
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
