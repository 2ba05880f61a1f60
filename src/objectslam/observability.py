"""Observability-matrix factoring and unobservable-subspace verification.

The stacked matrix O has rows H_k @ F_{k-1} @ ... @ F_0 (empty product for
the first block). It is never formed: one R factor is folded from its rows,
a state dimension's worth at a time, so memory stays O(d^2) whatever the
window. O = Q R with orthonormal Q, so R has O's singular values and
||O N|| = ||R N||, without the squared condition number of a Gram sum.
Null spaces are extracted by one SVD of R with a relative singular-value
threshold that still counts O's rows; check_null_space compares the computed
null space against the analytic gauge basis the log's filter and mode call
for (global rotation + translation). The three bases come from one block
construction; the rule that picks one is checked apart from building it, so
validating a Jacobian-log header builds no basis.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .ekf import INVARIANT, STANDARD
from .errors import DimensionMismatchError, RankToleranceError
from .group import tangent_dim
from .lie import skew

DEFAULT_RANK_TOL = 1e-8
# every filter name: (error convention, Jacobians taken at ground truth?)
FILTERS = {"riekf": (INVARIANT, False), "stdekf": (STANDARD, False),
           "ideal": (STANDARD, True)}
FILTER_KINDS = tuple(FILTERS)


@dataclass
class JacobianLog:
    """Per-step (F, H) Jacobians of one filter run plus evaluation metadata.

    mode is "estimated" or "ideal"; H_k stacks the Jacobians of every
    observation processed at step k (6 rows each) and may be absent for steps
    without observations. start_step records which filter step the first entry
    belongs to, and anchor optionally carries the true positions at that step
    (needed by the ideal-mode null-space basis).
    """

    filter_name: str  # one of FILTER_KINDS
    mode: str
    num_features: int
    F: list = field(default_factory=list)
    H: list = field(default_factory=list)
    start_step: int = 0
    anchor: dict | None = None

    @property
    def state_dim(self) -> int:
        return tangent_dim(self.num_features)

    def append(self, f: np.ndarray, h: np.ndarray | None) -> None:
        d = self.state_dim
        if f.shape != (d, d):
            raise DimensionMismatchError(f"F shape {f.shape}, expected ({d},{d})")
        if h is not None and h.shape[1] != d:
            raise DimensionMismatchError(f"H has {h.shape[1]} columns, expected {d}")
        self.F.append(f)
        self.H.append(h)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis (columns) of a null space and the singular values of
    the matrix it was taken from, in descending order."""

    basis: np.ndarray
    singular_values: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def fold_observability_matrix(log: JacobianLog) -> tuple[np.ndarray, int]:
    """R factor of the stacked observability matrix, and the stack's row count.

    Rows are folded into R by one QR each time at least d of them are
    pending, so at most R, Phi_k and under 2 d rows are held at once. R is
    min(rows, d) x d: square once the stack is tall, the rows' own upper
    trapezoid while they are fewer than d.
    """
    if not log.F:
        raise DimensionMismatchError("empty Jacobian log")
    d = log.state_dim
    blocks, pending, rows = [], 0, 0  # blocks[0] is R once a fold has run
    prod = np.eye(d)
    for k, h in enumerate(log.H):
        if k > 0:
            prod = log.F[k - 1] @ prod
        if h is None or not h.size:
            continue
        blocks.append(h @ prod)
        pending += h.shape[0]
        rows += h.shape[0]
        if pending >= d:
            blocks, pending = [np.linalg.qr(np.vstack(blocks), mode="r")], 0
    if not rows:
        raise DimensionMismatchError("Jacobian log contains no observations")
    return np.linalg.qr(np.vstack(blocks), mode="r"), rows


def null_space(m: np.ndarray, tol: float = DEFAULT_RANK_TOL,
               rows: int | None = None) -> SubspaceBasis:
    """Orthonormal basis of right singular vectors below tol * sigma_max * max(dim).

    dim is m's shape, with rows in place of its row count when m is the R
    factor of a taller stack. Only V is needed. A tall m x n matrix takes the
    thin SVD, whose V^T is already n x n, so the m x m U is never formed; a
    wide one (m < n) needs the full V^T, whose last n - m rows are null
    directions without a singular value. A tol of 1 / max(dim) or more puts
    the cutoff at or above sigma_max, which would make every direction null:
    RankToleranceError.
    """
    rows = m.shape[0] if rows is None else rows
    size = max(rows, m.shape[1])
    if tol * size >= 1.0:
        raise RankToleranceError(
            f"tol {tol:g} is too large for a {rows} x {m.shape[1]} matrix: "
            f"the cutoff tol * sigma_max * {size} would count every "
            f"direction as unobservable (tol must be below {1.0 / size:g})")
    _, sv, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    if sv.size == 0 or sv[0] == 0.0:
        return SubspaceBasis(np.eye(m.shape[1]), sv)
    cutoff = tol * sv[0] * size
    n_null = m.shape[1] - int(np.sum(sv > cutoff))
    return SubspaceBasis(vt[m.shape[1] - n_null:].T.copy(), sv)


def subspace_contained(a: np.ndarray, b: np.ndarray) -> float:
    """Residual of span(a) within span(b): ||(I - B B^T) A|| after orthonormalizing."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.norm(qa - qb @ (qb.T @ qa)))


def invariant_gauge_basis(num_features: int) -> np.ndarray:
    """Analytic unobservable directions of the invariant error: identities
    stacked on the rotation blocks (columns 0:3) and position blocks (3:6)."""
    return np.kron(np.eye(2), np.tile(np.eye(3), (num_features + 1, 1)))


def std_ideal_gauge_basis(robot_pos: np.ndarray,
                          feature_pos: np.ndarray) -> np.ndarray:
    """Gauge directions of the per-block error, anchored at the true positions
    of the first observability-matrix row.

    Translation columns are stacked identities on the position blocks; rotation
    columns carry delta_p = delta_theta x p, i.e. -skew(p) on each position
    block.
    """
    p = np.vstack([robot_pos, np.reshape(feature_pos, (-1, 3))])
    n = np.roll(invariant_gauge_basis(len(p) - 1), 3, axis=1)
    n[3 * len(p):, 3:6] = np.vstack([-skew(v) for v in p])
    return n


def std_estimated_gauge_basis(num_features: int) -> np.ndarray:
    """Only the global translation survives estimate-based linearization."""
    return invariant_gauge_basis(num_features)[:, 3:6]


@dataclass(frozen=True)
class ObservabilityReport:
    filter_name: str
    mode: str
    num_features: int
    steps: int
    state_dim: int
    null_dim: int
    expected_dim: int
    sigma_max: float
    singular_values: np.ndarray
    basis_residual: float
    containment_residual: float | None  # None when the null space is empty
    passed: bool

    def to_dict(self) -> dict:
        """The fields in order, filter_name as "filter", singular values as floats."""
        d = {"filter" if f.name == "filter_name" else f.name: getattr(self, f.name)
             for f in fields(self)}
        d["singular_values"] = list(map(float, self.singular_values))
        return d


def _check_gauge_rule(log: JacobianLog) -> None:
    """Raise ValueError unless the log's filter, mode and anchor call for a
    gauge basis (a filter taken at truth has no estimated-mode log, and an
    ideal-mode standard-filter log needs an anchor); builds no basis."""
    convention, at_truth = FILTERS[log.filter_name]
    if at_truth and log.mode == "estimated":
        raise ValueError(f"filter {log.filter_name!r} is linearized at truth, "
                         "so its log cannot have mode 'estimated'")
    if convention is STANDARD and log.mode != "estimated" and log.anchor is None:
        raise ValueError("an ideal-mode standard-filter log needs an anchor")


def gauge_basis(log: JacobianLog) -> np.ndarray:
    """The unobservable directions the log's filter should keep: 6 for the
    invariant convention whatever its linearization, 6 for the standard one
    linearized at truth (anchored at the log's true positions), 3 (global
    translation) for the standard one linearized at its estimates. A filter
    taken at truth cannot have an estimated-mode log."""
    _check_gauge_rule(log)
    if FILTERS[log.filter_name][0] is INVARIANT:
        return invariant_gauge_basis(log.num_features)
    if log.mode == "estimated":
        return std_estimated_gauge_basis(log.num_features)
    return std_ideal_gauge_basis(np.asarray(log.anchor["robot_pos"], dtype=float),
                                 np.asarray(log.anchor["feature_pos"], dtype=float))


def check_null_space(log: JacobianLog,
                     tol: float = DEFAULT_RANK_TOL) -> ObservabilityReport:
    """Compare the observability matrix's null space with the log's gauge
    basis; the check passes when their dimensions agree and the matrix
    annihilates the basis. Both are read from the matrix's R factor."""
    analytic = gauge_basis(log)
    expected_dim = analytic.shape[1]
    r, rows = fold_observability_matrix(log)
    ns = null_space(r, tol=tol, rows=rows)
    sv = ns.singular_values
    residual = float(np.linalg.norm(r @ analytic))
    contain = float(subspace_contained(analytic, ns.basis)) if ns.dimension else None
    passed = (ns.dimension == expected_dim
              and residual <= max(tol * sv[0], 1e-12) * max(1.0, expected_dim))
    n_obs_steps = sum(1 for h in log.H if h is not None and h.size)
    return ObservabilityReport(
        log.filter_name, log.mode, log.num_features, n_obs_steps,
        log.state_dim, ns.dimension, expected_dim, float(sv[0]), sv,
        residual, contain, bool(passed))
