"""SO(3) primitives: skew operator, exponential/logarithm maps, left Jacobian.

Rotations are plain 3x3 numpy arrays. Closed-form Rodrigues expressions are
used everywhere, with Taylor fallbacks below SMALL_ANGLE to avoid cancellation.
These sit on the filter's innermost loop, hence the scalar-math style.
"""

import math

import numpy as np

from .errors import InvalidRotationError, LogDomainError

SMALL_ANGLE = 1e-4

_I3 = np.eye(3)
_I3.setflags(write=False)


def skew(v: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the matrix S with S @ w == v x w."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _det3(m) -> float:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _orthonormality_error(r) -> float:
    d = r @ r.T - _I3
    return math.sqrt(float((d * d).sum()))


def require_rotation(r: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Validate an externally supplied rotation matrix."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise InvalidRotationError(f"expected 3x3 matrix, got shape {r.shape}")
    err = _orthonormality_error(r)
    if err > tol or abs(_det3(r) - 1.0) > tol:
        raise InvalidRotationError(
            f"matrix is not a rotation (||RR^T - I|| = {err:.3e})")
    return r


def project_to_so3(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (polar projection via SVD)."""
    u, _, vt = np.linalg.svd(r)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rotation matrix for the rotation vector phi (radians)."""
    x, y, z = phi.tolist() if isinstance(phi, np.ndarray) else phi
    a2 = x * x + y * y + z * z
    angle = math.sqrt(a2)
    s = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if angle < SMALL_ANGLE:
        # sin(a)/a ~ 1 - a^2/6, (1-cos a)/a^2 ~ 1/2 - a^2/24
        c1, c2 = 1.0 - a2 / 6.0, 0.5 - a2 / 24.0
    else:
        c1, c2 = math.sin(angle) / angle, (1.0 - math.cos(angle)) / a2
    return _I3 + c1 * s + c2 * (s @ s)


def so3_log(r: np.ndarray, validate: bool = True) -> np.ndarray:
    """Rotation vector of r, principal value with norm <= pi.

    Angles away from pi use the direct antisymmetric-part formula; near pi it
    loses the axis, so that regime goes through the quaternion, which stays
    well-conditioned arbitrarily close to pi. At pi exactly the axis sign is
    fixed so its largest-magnitude component is positive. validate=False
    skips the orthonormality check for rotations known valid by construction
    (filter-internal products).
    """
    if validate:
        r = require_rotation(r)
    f = r.ravel()
    tr = f[0] + f[4] + f[8]
    if tr > -0.9:
        # theta < ~2.69 rad: scale * vee(R - R^T) with scale = theta/(2 sin theta)
        angle = math.acos(min(1.0, max(-1.0, 0.5 * (tr - 1.0))))
        if angle < SMALL_ANGLE:
            scale = 0.5 * (1.0 + angle * angle / 6.0)
        else:
            scale = 0.5 * angle / math.sin(angle)
        return scale * np.array([f[7] - f[5], f[2] - f[6], f[3] - f[1]])
    q = rot_to_quat(r)
    w, vec = q[0], q[1:]
    n = math.sqrt(float(vec @ vec))
    axis = vec / n
    if w < 1e-9:
        # exactly at pi both signs represent the same rotation
        if axis[int(np.argmax(np.abs(axis)))] < 0.0:
            axis = -axis
        return np.pi * axis
    return 2.0 * math.atan2(n, w) * axis


def left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian of SO(3): sum_k skew(phi)^k / (k+1)!."""
    x, y, z = phi.tolist() if isinstance(phi, np.ndarray) else phi
    a2 = x * x + y * y + z * z
    angle = math.sqrt(a2)
    s = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if angle < SMALL_ANGLE:
        c1, c2 = 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0
    else:
        c1 = (1.0 - math.cos(angle)) / a2
        c2 = (angle - math.sin(angle)) / (a2 * angle)
    return _I3 + c1 * s + c2 * (s @ s)


def left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse of the left Jacobian; valid for ||phi|| < 2*pi."""
    x, y, z = phi.tolist() if isinstance(phi, np.ndarray) else phi
    a2 = x * x + y * y + z * z
    angle = math.sqrt(a2)
    if angle >= 2.0 * np.pi:
        raise LogDomainError(f"left Jacobian singular at angle {angle:.6f}")
    s = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if angle < SMALL_ANGLE:
        c2 = 1.0 / 12.0 + a2 / 720.0
    else:
        c2 = (1.0 - angle * math.sin(angle)
              / (2.0 * (1.0 - math.cos(angle)))) / a2
    return _I3 - 0.5 * s + c2 * (s @ s)


def batch_so3_exp(phis: np.ndarray) -> np.ndarray:
    """Vectorized so3_exp over an (n, 3) array of rotation vectors.

    Batches of Kalman corrections are almost always uniformly tiny, so the
    all-small and all-large regimes skip the elementwise branching.
    """
    n = phis.shape[0]
    a2 = (phis * phis).sum(axis=1)
    s = np.zeros((n, 3, 3))
    s[:, 0, 1], s[:, 0, 2] = -phis[:, 2], phis[:, 1]
    s[:, 1, 0], s[:, 1, 2] = phis[:, 2], -phis[:, 0]
    s[:, 2, 0], s[:, 2, 1] = -phis[:, 1], phis[:, 0]
    hi = float(a2.max(initial=0.0))
    if hi < SMALL_ANGLE * SMALL_ANGLE:
        c1 = 1.0 - a2 / 6.0
        c2 = 0.5 - a2 / 24.0
    elif float(a2.min(initial=np.inf)) >= SMALL_ANGLE * SMALL_ANGLE:
        angle = np.sqrt(a2)
        c1 = np.sin(angle) / angle
        c2 = (1.0 - np.cos(angle)) / a2
    else:
        angle = np.sqrt(a2)
        small = angle < SMALL_ANGLE
        safe2 = np.where(small, 1.0, a2)
        safe = np.where(small, 1.0, angle)
        c1 = np.where(small, 1.0 - a2 / 6.0, np.sin(safe) / safe)
        c2 = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(safe)) / safe2)
    out = s @ s
    out *= c2[:, None, None]
    out += c1[:, None, None] * s
    out += _I3
    return out


def batch_so3_log(rots: np.ndarray) -> np.ndarray:
    """Vectorized so3_log for rotations away from pi (angle < ~3)."""
    tr = np.clip((np.trace(rots, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(tr)
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    scale = np.where(small, 0.5 + angle ** 2 / 12.0, safe / (2.0 * np.sin(safe)))
    out = np.empty((rots.shape[0], 3))
    out[:, 0] = rots[:, 2, 1] - rots[:, 1, 2]
    out[:, 1] = rots[:, 0, 2] - rots[:, 2, 0]
    out[:, 2] = rots[:, 1, 0] - rots[:, 0, 1]
    return scale[:, None] * out


def batch_left_jacobian(phis: np.ndarray) -> np.ndarray:
    """Vectorized left_jacobian over an (n, 3) array."""
    n = phis.shape[0]
    a2 = np.einsum("ni,ni->n", phis, phis)
    angle = np.sqrt(a2)
    small = angle < SMALL_ANGLE
    safe2 = np.where(small, 1.0, a2)
    safe = np.where(small, 1.0, angle)
    s = np.zeros((n, 3, 3))
    s[:, 0, 1], s[:, 0, 2] = -phis[:, 2], phis[:, 1]
    s[:, 1, 0], s[:, 1, 2] = phis[:, 2], -phis[:, 0]
    s[:, 2, 0], s[:, 2, 1] = -phis[:, 1], phis[:, 0]
    c1 = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(safe)) / safe2)
    c2 = np.where(small, 1.0 / 6.0 - a2 / 120.0,
                  (safe - np.sin(safe)) / (safe2 * safe))
    return _I3[None] + c1[:, None, None] * s + c2[:, None, None] * (s @ s)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) (via a random unit quaternion)."""
    return quat_to_rot(rng.normal(size=4))


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a (w, x, y, z) quaternion, normalized on ingest."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise InvalidRotationError("zero quaternion")
    w, x, y, z = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """(w, x, y, z) unit quaternion for a rotation matrix (Shepperd's method)."""
    m = r
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s,
                      (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s,
                      0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)
