import tracemalloc

import numpy as np
import pytest

from objectslam.errors import DimensionMismatchError, RankToleranceError
from objectslam.group import pos_block, rot_block, tangent_dim
from objectslam.harness import observability_experiment
from objectslam.lie import skew
from objectslam.observability import (DEFAULT_RANK_TOL, JacobianLog,
                                      fold_observability_matrix, gauge_basis,
                                      invariant_gauge_basis, null_space,
                                      std_estimated_gauge_basis,
                                      std_ideal_gauge_basis,
                                      subspace_contained, check_null_space)


def stacked_observability_matrix(log):
    """Reference: the whole stack of rows H_k @ F_{k-1} @ ... @ F_0, as the
    check built it before it folded an R factor instead."""
    rows = []
    prod = np.eye(log.state_dim)
    for k, (f, h) in enumerate(zip(log.F, log.H)):
        if k > 0:
            prod = log.F[k - 1] @ prod
        if h is not None and h.size:
            rows.append(h @ prod)
    return np.vstack(rows)


def assert_folds_to(log, expected):
    # R^T R = O^T O for O = Q R; R is upper triangular (trapezoidal when wide)
    r, rows = fold_observability_matrix(log)
    assert rows == expected.shape[0]
    assert r.shape == (min(expected.shape), expected.shape[1])
    assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
    gram = expected.T @ expected
    assert np.allclose(r.T @ r, gram, rtol=0, atol=1e-13 * np.abs(gram).max())


def test_single_step_returns_h():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 12))
    log = JacobianLog("riekf", "estimated", 1)
    log.append(np.eye(12), h)
    assert_folds_to(log, h)
    assert np.array_equal(stacked_observability_matrix(log), h)


def test_identity_transitions_stack_raw_h():
    rng = np.random.default_rng(1)
    hs = [rng.normal(size=(6, 12)) for _ in range(4)]
    log = JacobianLog("riekf", "estimated", 1)
    for h in hs:
        log.append(np.eye(12), h)
    assert_folds_to(log, np.vstack(hs))


def test_three_step_product_matches_hand_assembly():
    # oracle: accumulate the F products explicitly and multiply by hand
    rng = np.random.default_rng(2)
    fs = [np.eye(12) for _ in range(3)]
    for f in fs:
        f[pos_block(0, 1), rot_block(0)] = -skew(rng.normal(size=3))
    hs = [rng.normal(size=(6, 12)) for _ in range(3)]
    log = JacobianLog("stdekf", "estimated", 1)
    for f, h in zip(fs, hs):
        log.append(f, h)
    expected = np.vstack([hs[0], hs[1] @ fs[0], hs[2] @ fs[1] @ fs[0]])
    assert np.allclose(stacked_observability_matrix(log), expected, atol=1e-12)
    assert_folds_to(log, expected)


def test_steps_without_observations_are_skipped():
    rng = np.random.default_rng(3)
    f1 = np.eye(12)
    f1[pos_block(0, 1), rot_block(0)] = -skew(rng.normal(size=3))
    h2 = rng.normal(size=(6, 12))
    log = JacobianLog("stdekf", "estimated", 1)
    log.append(f1, None)
    log.append(np.eye(12), h2)
    assert_folds_to(log, h2 @ f1)


def test_null_space_trivial_cases():
    assert null_space(np.zeros((4, 5))).dimension == 5
    assert null_space(np.eye(7)).dimension == 0


def test_null_space_constructed_rank():
    rng = np.random.default_rng(4)
    for rank in (2, 5, 8):
        a = rng.normal(size=(20, rank))
        b = rng.normal(size=(rank, 12))
        ns = null_space(a @ b)
        assert ns.dimension == 12 - rank
        assert np.allclose(ns.basis.T @ ns.basis, np.eye(12 - rank), atol=1e-10)
        assert np.linalg.norm((a @ b) @ ns.basis) < 1e-8


def test_subspace_containment_measure():
    rng = np.random.default_rng(5)
    b = np.linalg.qr(rng.normal(size=(10, 6)))[0]
    inside = b @ rng.normal(size=(6, 3))
    outside = rng.normal(size=(10, 3))
    assert subspace_contained(inside, b) < 1e-10
    assert subspace_contained(outside, b) > 1e-3


def test_invariant_noisy_runs_have_six_dim_null_space():
    for k in (1, 3):
        log, _ = observability_experiment("riekf", k, 15, seed=2, noisy=True)
        report = check_null_space(log)
        assert report.null_dim == 6
        assert report.basis_residual < 1e-8 * report.sigma_max
        assert report.passed


def test_invariant_ideal_run():
    log, _ = observability_experiment("riekf", 1, 10, seed=3, noisy=False)
    report = check_null_space(log)
    assert report.null_dim == 6
    assert report.passed


def test_invariant_single_step_contains_basis():
    log, _ = observability_experiment("riekf", 1, 1, seed=4, noisy=True)
    assert len(log.H) == 1
    report = check_null_space(log)
    assert report.null_dim >= 6
    assert report.basis_residual < 1e-10


def test_invariant_prefix_rows_annihilate_basis():
    log, _ = observability_experiment("riekf", 2, 12, seed=5, noisy=True)
    basis = invariant_gauge_basis(2)
    obs = stacked_observability_matrix(log)
    for rows in range(6, obs.shape[0] + 1, 6):
        assert np.linalg.norm(obs[:rows] @ basis) < 1e-9


def test_null_dimension_monotone_in_steps():
    log, _ = observability_experiment("stdekf", 1, 12, seed=6, noisy=True)
    dims = []
    for t in range(1, len(log.F) + 1):
        prefix = JacobianLog("stdekf", "estimated", 1, F=log.F[:t], H=log.H[:t])
        r, rows = fold_observability_matrix(prefix)
        dims.append(null_space(r, rows=rows).dimension)
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_standard_ideal_noise_free_circle():
    log, _ = observability_experiment("ideal", 1, 20, seed=7, noisy=False)
    report = check_null_space(log)
    assert report.null_dim == 6
    assert report.basis_residual < 1e-8 * report.sigma_max
    assert report.containment_residual < 1e-8
    assert report.passed


def test_standard_estimated_noisy_run():
    log, _ = observability_experiment("stdekf", 1, 20, seed=8, noisy=True)
    report = check_null_space(log)
    assert report.null_dim == 3
    assert report.basis_residual < 1e-8 * report.sigma_max
    assert report.passed


def test_standard_estimated_on_truth_degenerates_to_six():
    # estimates equal to the truth reduce the estimated case to the ideal one
    log, anchor = observability_experiment("stdekf", 1, 20, seed=9, noisy=False)
    r, rows = fold_observability_matrix(log)
    assert null_space(r, rows=rows).dimension == 6
    ideal_basis = std_ideal_gauge_basis(anchor.robot_pos, anchor.feature_pos)
    assert np.linalg.norm(r @ ideal_basis) < 1e-9


def test_standard_translation_basis_is_subspace_of_ideal_basis():
    rng = np.random.default_rng(10)
    robot_pos = rng.normal(size=3)
    feature_pos = rng.normal(size=(2, 3))
    wide = std_ideal_gauge_basis(robot_pos, feature_pos)
    narrow = std_estimated_gauge_basis(2)
    assert subspace_contained(narrow, wide) < 1e-10


def test_empty_log_rejected():
    with pytest.raises(DimensionMismatchError):
        fold_observability_matrix(JacobianLog("riekf", "estimated", 1))
    log = JacobianLog("riekf", "estimated", 1)
    log.append(np.eye(12), None)
    with pytest.raises(DimensionMismatchError):
        fold_observability_matrix(log)


def test_dimension_mismatch_rejected():
    log = JacobianLog("riekf", "estimated", 1)
    with pytest.raises(DimensionMismatchError):
        log.append(np.eye(11), None)


def full_svd_null_space(m, tol=DEFAULT_RANK_TOL):
    # reference: the full SVD, m x m U included
    _, sv, vt = np.linalg.svd(m, full_matrices=True)
    n_null = m.shape[1] - int(np.sum(sv > tol * sv[0] * max(m.shape)))
    return vt[m.shape[1] - n_null:].T, sv


@pytest.mark.parametrize("rows, cols, rank", [
    (60, 12, 8),    # tall, as observability matrices are
    (12, 12, 7),    # square
    (5, 12, 5),     # wide: 7 null directions have no singular value
    (6, 12, 3),     # wide and rank-deficient
])
def test_thin_null_space_matches_full_svd(rows, cols, rank):
    rng = np.random.default_rng(rows * cols + rank)
    m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    ns = null_space(m)
    ref_basis, ref_sv = full_svd_null_space(m)
    assert ns.dimension == ref_basis.shape[1] == cols - rank
    assert np.allclose(ns.basis.T @ ns.basis, np.eye(cols - rank), atol=1e-12)
    assert subspace_contained(ns.basis, ref_basis) <= 1e-12
    assert subspace_contained(ref_basis, ns.basis) <= 1e-12
    assert ns.singular_values.shape == ref_sv.shape
    assert np.max(np.abs(ns.singular_values - ref_sv)) <= 1e-12 * ref_sv[0]


def test_report_singular_values_come_from_the_null_space_svd():
    log, _ = observability_experiment("riekf", 2, 12, seed=11, noisy=True)
    report = check_null_space(log)
    ref = np.linalg.svd(stacked_observability_matrix(log), compute_uv=False)
    assert report.singular_values.shape == ref.shape
    assert np.max(np.abs(report.singular_values - ref)) <= 1e-12 * ref[0]
    assert report.sigma_max == report.singular_values[0]


def _check_peak(log):
    tracemalloc.start()
    try:
        report = check_null_space(log)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.null_dim == 6
    return peak


def test_null_space_check_never_forms_the_full_u():
    # a full SVD of an m-row matrix allocates an m x m U (m^2 * 8 bytes), and
    # the stacked matrix itself grows with m; the folded R factor is d x d,
    # so doubling the window leaves the check's peak where it was
    base, _ = observability_experiment("riekf", 1, 20, seed=12, noisy=True)
    log = JacobianLog("riekf", "estimated", 1)
    peaks = []
    for min_rows in (2000, 4000):
        while sum(h.shape[0] for h in log.H if h is not None) < min_rows:
            for f, h in zip(base.F, base.H):
                log.append(f, h)
        rows = fold_observability_matrix(log)[1]
        assert rows >= min_rows
        peaks.append(_check_peak(log))
        assert peaks[-1] < rows * rows * 8 / 10
    assert peaks[1] <= 1.1 * peaks[0]


def _gauge_preserving_log(num_features, rows_per_step, seed):
    # F N = N and H N = 0 for the invariant gauge basis N, so the check can
    # pass on random Jacobians; a step with 0 rows has no observation
    rng = np.random.default_rng(seed)
    d = tangent_dim(num_features)
    q = np.linalg.qr(invariant_gauge_basis(num_features))[0]
    proj = np.eye(d) - q @ q.T
    log = JacobianLog("riekf", "estimated", num_features)
    for rows in rows_per_step:
        f = np.eye(d) + 0.1 * rng.normal(size=(d, d)) @ proj
        log.append(f, rng.normal(size=(rows, d)) @ proj if rows else None)
    return log


FOLD_CASES = {
    # the observability workload's two logs
    "riekf-K6-100": lambda: observability_experiment("riekf", 6, 100, seed=0,
                                                     noisy=True)[0],
    "ideal-K6-100": lambda: observability_experiment("ideal", 6, 100, seed=0,
                                                     noisy=False)[0],
    "wide": lambda: _gauge_preserving_log(6, [6, 6, 6], seed=30),
    "observation-free-steps": lambda: _gauge_preserving_log(
        2, [6, 0, 0, 12, 0, 6, 6, 0], seed=31),
    "rows-not-a-multiple-of-d": lambda: _gauge_preserving_log(2, [6] * 7, seed=32),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_folded_check_matches_the_stacked_svd(case):
    log = FOLD_CASES[case]()
    obs = stacked_observability_matrix(log)
    analytic = gauge_basis(log)
    ref = null_space(obs)
    ref_passed = (ref.dimension == analytic.shape[1]
                  and np.linalg.norm(obs @ analytic)
                  <= max(DEFAULT_RANK_TOL * ref.singular_values[0], 1e-12)
                  * max(1.0, analytic.shape[1]))
    report = check_null_space(log)
    d = log.state_dim
    if case == "wide":
        assert obs.shape[0] < d
    elif case == "observation-free-steps":
        assert any(h is None for h in log.H)
    elif case == "rows-not-a-multiple-of-d":
        assert obs.shape[0] % d
    assert report.singular_values.shape == ref.singular_values.shape
    assert (np.max(np.abs(report.singular_values - ref.singular_values))
            <= 1e-14 * ref.singular_values[0])
    assert report.null_dim == ref.dimension
    assert report.passed == ref_passed


@pytest.mark.parametrize("kind, noisy, mode, expected_dim", [
    ("riekf", True, "estimated", 6),
    ("stdekf", True, "estimated", 3),
    ("ideal", False, "ideal", 6),
])
def test_check_null_space_reads_the_gauge_from_the_log(kind, noisy, mode,
                                                       expected_dim):
    log, _ = observability_experiment(kind, 2, 15, seed=13, noisy=noisy)
    assert log.mode == mode
    report = check_null_space(log)
    assert report.expected_dim == expected_dim
    assert report.null_dim == expected_dim
    assert report.passed


def test_tolerance_that_would_null_every_direction_rejected():
    m = np.diag([4.0, 3.0, 2.0, 1.0, 1e-3])  # max dimension 5
    with pytest.raises(RankToleranceError, match=r"tol 0.2 .* 5 x 5 matrix"):
        null_space(m, tol=0.2)
    # just below 1 / 5 the cutoff stays under sigma_max
    assert null_space(m, tol=0.19).dimension == 4


def _loop_gauge_bases(robot_pos, feature_pos):
    """The invariant, standard-ideal and standard-estimated bases as block
    loops once built them, one 3 x 3 block at a time."""
    k = len(feature_pos)
    inv, ideal = np.zeros((tangent_dim(k), 6)), np.zeros((tangent_dim(k), 6))
    est = np.zeros((tangent_dim(k), 3))
    for i in range(k + 1):
        inv[rot_block(i), 0:3] = inv[pos_block(i, k), 3:6] = np.eye(3)
        ideal[pos_block(i, k), 0:3] = ideal[rot_block(i), 3:6] = np.eye(3)
        est[pos_block(i, k), 0:3] = np.eye(3)
    ideal[pos_block(0, k), 3:6] = -skew(robot_pos)
    for j in range(k):
        ideal[pos_block(j + 1, k), 3:6] = -skew(feature_pos[j])
    return inv, ideal, est


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_gauge_bases_are_bit_identical_to_the_block_loops(k):
    rng = np.random.default_rng(20 + k)
    robot_pos, feature_pos = rng.normal(size=3), rng.normal(size=(k, 3))
    built = (invariant_gauge_basis(k), std_ideal_gauge_basis(robot_pos, feature_pos),
             std_estimated_gauge_basis(k))
    for got, want in zip(built, _loop_gauge_bases(robot_pos, feature_pos)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_report_dict_keeps_its_key_order():
    log, _ = observability_experiment("riekf", 1, 5, seed=14, noisy=True)
    d = check_null_space(log).to_dict()
    assert list(d) == ["filter", "mode", "num_features", "steps", "state_dim",
                       "null_dim", "expected_dim", "sigma_max", "singular_values",
                       "basis_residual", "containment_residual", "passed"]
    assert d["filter"] == "riekf"
    assert type(d["singular_values"]) is list
    assert all(type(v) is float for v in d["singular_values"])
