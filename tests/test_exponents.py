"""Exponent windows and the dual-exponent map."""

import math

import numpy as np
import pytest

from qcap import DomainError, ExponentPair, WindowClass, classify_window, dual_exponent, dual_exponents, super_window_upper_bound


def test_pair_validation():
    ExponentPair(2, 2.0, 2.0)
    ExponentPair(3, 3.5, 3.2)
    with pytest.raises(DomainError):
        ExponentPair(1, 2.0, 2.0)
    with pytest.raises(DomainError):
        ExponentPair(2, 2.0, 1.0)
    with pytest.raises(DomainError, match=r"^exponents must satisfy 1 < q <= p, got q=2.5, p=2.0$"):
        ExponentPair(2, 2.0, 2.5)
    # 1 < q <= p < inf: an infinite p passed the ordering
    for q in (1.5, math.inf):
        with pytest.raises(DomainError, match="p must be finite"):
            ExponentPair(2, math.inf, q)
    # n = 2.0 passed int(n) == n, although the message asks for an integer
    for n in (2.0, 3.0, 2.5):
        with pytest.raises(DomainError, match="dimension must be an integer"):
            ExponentPair(n, 2.0, 1.5)
    assert ExponentPair(np.int64(3), 3.5, 3.2).n == 3


def test_super_window_upper_bound():
    assert super_window_upper_bound(2) is None
    assert super_window_upper_bound(3) == 4.0
    assert super_window_upper_bound(4) == 4.5


@pytest.mark.parametrize(
    "n, p, q, expected",
    [
        (3, 2.5, 2.2, WindowClass.SUB_DIMENSIONAL),
        (2, 2.0, 2.0, WindowClass.QUASICONFORMAL),
        (3, 3.0, 3.0, WindowClass.QUASICONFORMAL),
        (3, 3.5, 3.2, WindowClass.SUPER_DIMENSIONAL),
        (3, 4.0, 3.5, WindowClass.OUT_OF_WINDOW),
        (3, 3.0, 2.5, WindowClass.OUT_OF_WINDOW),
        (2, 1.5, 1.2, WindowClass.SUB_DIMENSIONAL),
        (2, 3.0, 2.5, WindowClass.OUT_OF_WINDOW),
    ],
)
def test_classify_window(n, p, q, expected):
    assert classify_window(ExponentPair(n, p, q)) is expected


def test_window_boundaries_are_out():
    # endpoints of every window classify as out-of-window
    assert classify_window(ExponentPair(3, 2.5, 2.0)) is WindowClass.OUT_OF_WINDOW
    assert classify_window(ExponentPair(3, 4.0, 3.2)) is WindowClass.OUT_OF_WINDOW


def test_classify_window_agrees_with_inequalities():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        p = float(rng.uniform(1.01, 6.0))
        q = float(rng.uniform(1.01, p))
        got = classify_window(ExponentPair(n, p, q))
        if n - 1 < q <= p < n:
            want = WindowClass.SUB_DIMENSIONAL
        elif p == n and q == n:
            want = WindowClass.QUASICONFORMAL
        elif n > 2 and n < q <= p < (n - 1) ** 2 / (n - 2):
            want = WindowClass.SUPER_DIMENSIONAL
        else:
            want = WindowClass.OUT_OF_WINDOW
        assert got is want


def test_dual_exponent_values():
    assert dual_exponent(2, 2.0) == 2.0
    assert dual_exponent(3, 3.5) == pytest.approx(3.5 / 1.5, rel=1e-15)
    assert dual_exponent(3, 4.0) == 2.0
    with pytest.raises(DomainError):
        dual_exponent(3, 2.0)
    with pytest.raises(DomainError):
        dual_exponent(2, 0.5)


def test_dual_pair_order_reversal():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        q = float(rng.uniform(n - 1 + 0.05, 10.0))
        p = float(rng.uniform(q, 10.5))
        p_dual, q_dual = dual_exponents(ExponentPair(n, p, q))
        assert p_dual <= q_dual


def test_dual_is_holder_conjugate_in_dimension_two():
    rng = np.random.default_rng(11)
    for p in rng.uniform(1.001, 20.0, size=200):
        pd = dual_exponent(2, float(p))
        assert abs(1 / p + 1 / pd - 1.0) < 1e-12
        assert abs(dual_exponent(2, pd) - p) / p < 1e-12


def test_super_window_maps_into_sub_window():
    # the dual of the super-dimensional window lands in the sub-dimensional one
    n = 3
    for p in np.linspace(3.0001, 3.9999, 50):
        pd = dual_exponent(n, float(p))
        assert n - 1 < pd < n
