import numpy as np

from objectslam.gating import gate
from objectslam.types import Innovation


def make_innovation(y, s):
    return Innovation(np.asarray(y, dtype=float), np.zeros((6, 12)),
                      np.asarray(s, dtype=float), np.zeros((6, 12)))


def test_zero_innovation_accepted():
    d = gate(make_innovation(np.zeros(6), np.eye(6)))
    assert d.accepted
    assert np.all(d.margins == 0.0)


def test_single_component_beyond_three_sigma_rejected():
    s = np.diag([1.0, 1.0, 1.0, 2.0, 1.0, 1.0])
    y = np.zeros(6)
    y[3] = 4.0 * np.sqrt(s[3, 3])
    d = gate(make_innovation(y, s))
    assert not d.accepted
    assert d.margins[3] > 3.0


def test_component_just_inside_accepted():
    y = np.full(6, 2.99)
    d = gate(make_innovation(y, np.eye(6)))
    assert d.accepted


def test_acceptance_rate_of_consistent_innovations():
    # all six components inside 3 sigma: p = erf(3/sqrt(2))^6 ~ 0.9839
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    s = a @ a.T + np.eye(6)
    factor = np.linalg.cholesky(s)
    n = 100_000
    accepted = 0
    draws = rng.standard_normal((n, 6)) @ factor.T
    bounds = 3.0 * np.sqrt(np.diag(s))
    accepted = np.sum(np.all(np.abs(draws) < bounds, axis=1))
    # spot-check the gate agrees with the vectorized count on a subsample
    for row in draws[:200]:
        assert gate(make_innovation(row, s)).accepted == bool(
            np.all(np.abs(row) < bounds))
    import math
    expected = math.erf(3.0 / math.sqrt(2.0)) ** 6
    assert abs(accepted / n - expected) < 0.003


def test_gate_scale_consistency():
    gen = np.random.default_rng(1)
    for _ in range(100):
        a = gen.normal(size=(6, 6))
        s = a @ a.T + 0.1 * np.eye(6)
        y = gen.normal(size=6) @ np.linalg.cholesky(s).T
        c = gen.uniform(0.1, 10.0)
        d1 = gate(make_innovation(y, s))
        d2 = gate(make_innovation(c * y, c * c * s))
        assert d1.accepted == d2.accepted
        assert np.allclose(d1.margins, d2.margins, atol=1e-12)


def test_non_positive_definite_s_rejected_with_diagnostic():
    s = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -0.5])
    d = gate(make_innovation(np.zeros(6), s))
    assert not d.accepted
    assert np.all(np.isinf(d.margins))
