"""Composition inequalities for capacities under mappings."""

import dataclasses
import math

import numpy as np
import pytest

from qcap import (
    DomainError,
    ExponentPair,
    GridDomain,
    Identity,
    JacobianData,
    RadialPower,
    SolverOptions,
    WindowError,
    dual_exponents,
    make_ring_condenser,
    verify_capacity_inequality,
    verify_dual_inequality,
)

OPTS = SolverOptions(rel_tol=1e-10)


def grid2(half, cells=64):
    return GridDomain.box(2, (-half, -half), (cells, cells), 2 * half / cells)


def grid3(half, cells=16):
    return GridDomain.box(3, (-half,) * 3, (cells,) * 3, 2 * half / cells)


def test_identity_equal_exponents_has_zero_slack():
    g = grid2(2.5)
    c = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    rep = verify_capacity_inequality(Identity(), c, 2.0, 2.0, g, OPTS)
    assert rep.converged
    assert rep.rhs_K == 1.0
    assert rep.lhs == pytest.approx(rep.rhs_cap, rel=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    assert rep.passed
    assert rep.rhs == pytest.approx(rep.rhs_K * rep.rhs_cap, rel=1e-15)


def test_radial_square_equality_case():
    # |x| x doubles the modulus of the (1, 2) ring; both sides agree
    image = GridDomain.box(2, (-4.5, -4.5), (64, 64), 9.0 / 64)
    source = grid2(2.5, 64)
    c_image = make_ring_condenser((0.0, 0.0), 1.0, 4.0, image)
    rep = verify_capacity_inequality(RadialPower(2.0, (0.0, 0.0)), c_image, 2.0, 2.0, source, OPTS)
    assert rep.converged and rep.passed
    assert rep.rhs_K == pytest.approx(math.sqrt(2.0), rel=1e-12)
    target = math.sqrt(2 * math.pi / math.log(2))
    assert rep.lhs == pytest.approx(target, rel=0.05)
    assert rep.rhs == pytest.approx(target, rel=0.05)
    assert rep.slack >= -rep.discretization_budget


def test_identity_distinct_exponents():
    g = grid2(2.5)
    c = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g)
    rep = verify_capacity_inequality(Identity(), c, 3.0, 2.0, g, OPTS)
    assert rep.converged
    # integral-mode coefficient of the identity is a volume power > 1 here
    assert rep.rhs_K == pytest.approx(25.0 ** ((3.0 - 2.0) / 6.0), rel=1e-12)
    assert rep.passed


def test_budget_scales_with_tau():
    g = grid2(2.0, 48)
    c = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g)
    rep1 = verify_capacity_inequality(Identity(), c, 2.0, 2.0, g, OPTS, tau=0.05)
    rep2 = verify_capacity_inequality(Identity(), c, 2.0, 2.0, g, OPTS, tau=0.10)
    assert rep2.discretization_budget == pytest.approx(2 * rep1.discretization_budget, rel=1e-12)


def test_capacity_inequality_validation():
    g = grid2(2.0, 32)
    c = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g)
    with pytest.raises(DomainError):
        verify_capacity_inequality(Identity(), c, 2.0, 2.5, g, OPTS)
    g3 = grid3(2.0, 8)
    with pytest.raises(DomainError):
        verify_capacity_inequality(Identity(), c, 2.0, 2.0, g3, OPTS)


@dataclasses.dataclass(frozen=True)
class OverflowingJacobian(Identity):
    """The identity with |Dphi| = 1e200, so |Dphi|^p overflows; ``det`` is its J."""

    det: float = 1.0

    def jacobian(self, pts, n):
        shape = np.shape(pts)[:-1]
        return JacobianData(np.full(shape, 1e200), np.full(shape, self.det))


@pytest.mark.parametrize("det", [1.0, math.inf])
def test_non_finite_coefficient_is_not_converged(det):
    # J = 1 gives K = inf, where slack and budget are both inf and the check
    # passes; J = inf gives inf / inf = NaN.  Neither K is a number to report.
    g = grid2(2.0, 32)
    c = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g)
    with np.errstate(all="ignore"):
        rep = verify_capacity_inequality(OverflowingJacobian(det), c, 2.0, 2.0, g, OPTS)
    assert not math.isfinite(rep.rhs_K)
    assert not rep.converged


@pytest.mark.parametrize("tau", [math.nan, -0.5, 0.0, math.inf])
def test_inequality_checks_reject_tau_out_of_range(tau):
    # the identity on its own ring has slack exactly 0.0, which any budget
    # tau (lhs + rhs) with 0 < tau < inf passes; a NaN or negative tau made
    # it fail instead
    g2 = grid2(2.0, 32)
    c2 = make_ring_condenser((0.0, 0.0), 0.8, 1.6, g2)
    rep = verify_capacity_inequality(Identity(), c2, 2.0, 2.0, g2, OPTS)
    assert rep.slack == 0.0 and rep.passed
    with pytest.raises(DomainError, match="tau"):
        verify_capacity_inequality(Identity(), c2, 2.0, 2.0, g2, OPTS, tau)
    g3 = grid3(2.5, 8)
    c3 = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, g3)
    with pytest.raises(DomainError, match="tau"):
        verify_dual_inequality(Identity(), c3, 3.5, 3.2, g3, OPTS, tau)


def test_dual_inequality_window_errors():
    g2 = grid2(2.5, 48)
    c2 = make_ring_condenser((0.0, 0.0), 1.0, 2.0, g2)
    # the dual window is empty in dimension 2
    with pytest.raises(WindowError):
        verify_dual_inequality(Identity(), c2, 2.5, 2.2, g2, OPTS)
    g3 = grid3(2.5, 16)
    c3 = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, g3)
    with pytest.raises(WindowError):
        verify_dual_inequality(Identity(), c3, 4.2, 3.5, g3, OPTS)  # p beyond 4
    with pytest.raises(WindowError):
        verify_dual_inequality(Identity(), c3, 3.5, 2.9, g3, OPTS)  # q not above n
    with pytest.raises(DomainError):
        verify_dual_inequality(Identity(), c3, 3.2, 3.5, g3, OPTS)  # q above p


def test_dual_inequality_identity_runs():
    g3 = grid3(2.5, 16)
    c3 = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, g3)
    rep = verify_dual_inequality(Identity(), c3, 3.5, 3.2, g3, OPTS)
    assert rep.converged
    assert rep.lhs > 0 and rep.rhs_cap > 0
    # identity coefficient in integral mode: volume to the dual-exponent power
    p_dual, q_dual = 3.5 / 1.5, 3.2 / 1.2
    expo = (q_dual - p_dual) / (q_dual * p_dual)
    assert rep.rhs_K == pytest.approx(125.0**expo, rel=1e-12)
    assert rep.passed


def test_dual_inequality_radial_runs():
    # radial square between 3d rings inside the dual window
    image = GridDomain.box(3, (-4.5,) * 3, (20,) * 3, 9.0 / 20)
    source = grid3(2.5, 20)
    c_source = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, source)
    rep = verify_dual_inequality(
        RadialPower(2.0, (0.0, 0.0, 0.0)), c_source, 3.5, 3.2, image, OPTS
    )
    assert rep.converged
    assert rep.slack >= -rep.discretization_budget


def test_dual_inequality_is_the_direct_check_of_the_inverse():
    # the dual check at (p, q) is the direct check of the inverse at (q', p')
    image = GridDomain.box(3, (-4.5,) * 3, (12,) * 3, 9.0 / 12)
    source = grid3(2.5, 12)
    c_source = make_ring_condenser((0.0, 0.0, 0.0), 1.0, 2.0, source)
    m = RadialPower(2.0, (0.0, 0.0, 0.0))
    p, q = 3.5, 3.2
    dual = verify_dual_inequality(m, c_source, p, q, image, OPTS)
    p_dual, q_dual = dual_exponents(ExponentPair(3, p, q))
    direct = verify_capacity_inequality(m.inverse(), c_source, q_dual, p_dual, image, OPTS)
    assert dataclasses.asdict(dual) == dataclasses.asdict(direct)
    assert dual.converged
