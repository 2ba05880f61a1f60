"""SO(3) primitives: skew operator, exponential/logarithm maps, left Jacobian.

Rotations are plain 3x3 numpy arrays. Closed-form Rodrigues expressions are
used everywhere, with Taylor fallbacks below SMALL_ANGLE to avoid cancellation.
The scalar maps sit on the filter's innermost loop, hence the scalar-math
style; the batch_ maps take any leading axes, and each matches its scalar
twin's regimes and accuracy.
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


def require_rotation(r: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Validate externally supplied rotations: one 3x3 matrix or a stack
    (..., 3, 3), each with ||R R^T - I|| and |det R - 1| within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise InvalidRotationError(f"expected 3x3 matrices, got shape {r.shape}")
    # the nine entries, each over the leading axes (a scalar for one matrix)
    a, b, c, d, e, f, g, h, i = r.reshape(r.shape[:-2] + (9,)).T
    n0, n1, n2 = a * a + b * b + c * c - 1.0, d * d + e * e + f * f - 1.0, \
        g * g + h * h + i * i - 1.0
    x01, x02, x12 = a * d + b * e + c * f, a * g + b * h + c * i, d * g + e * h + f * i
    err2 = n0 * n0 + n1 * n1 + n2 * n2 + 2.0 * (x01 * x01 + x02 * x02 + x12 * x12)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if ((err2 > tol * tol) | (abs(det - 1.0) > tol)).any():
        raise InvalidRotationError(
            f"matrix is not a rotation (||RR^T - I|| = {math.sqrt(err2.max()):.3e})")
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
    return _log_via_quaternion(r[None])[0]


# phi @ _SKEW_BASIS is skew(phi), row-major: every entry is +-1 times one
# component plus exact zeros
_SKEW_BASIS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                        [0, 0, 1, 0, 0, 0, -1, 0, 0],
                        [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)
_SKEW_BASIS.setflags(write=False)


def _skews(phis: np.ndarray) -> np.ndarray:
    """skew over the last axis: (..., 3) vectors to (..., 3, 3) matrices."""
    return (phis @ _SKEW_BASIS).reshape(phis.shape[:-1] + (3, 3))


def _coefficients(a2: np.ndarray, series, closed) -> tuple:
    """Coefficients of the squared angles a2: series(a2) below SMALL_ANGLE,
    closed(angle, a2) above.

    Batches of Kalman corrections are almost always uniformly tiny, so the
    all-small and all-large regimes skip the elementwise branching.
    """
    if float(a2.max(initial=0.0)) < SMALL_ANGLE * SMALL_ANGLE:
        return series(a2)
    if float(a2.min(initial=np.inf)) >= SMALL_ANGLE * SMALL_ANGLE:
        return closed(np.sqrt(a2), a2)
    small = a2 < SMALL_ANGLE * SMALL_ANGLE
    safe2 = np.where(small, 1.0, a2)
    return tuple(np.where(small, lo, hi) for lo, hi in
                 zip(series(a2), closed(np.sqrt(safe2), safe2)))


def _rodrigues(s: np.ndarray, ss: np.ndarray, c1, c2) -> np.ndarray:
    """I + c1 S + c2 S^2, per matrix of the stacks S and S^2."""
    out = ss * c2[..., None, None]
    out += c1[..., None, None] * s
    out += _I3
    return out


def batch_so3_exp(phis: np.ndarray, left_jacobian: bool = False):
    """so3_exp over (..., 3) rotation vectors: (..., 3, 3) rotations.

    With left_jacobian, also the left Jacobians sum_k S^k / (k+1)! of the
    same vectors, from the same pass: they share S, S^2 and (1 - cos a)/a^2.
    """
    a2 = (phis * phis).sum(axis=-1)

    def series(a2):
        # sin(a)/a, (1 - cos a)/a^2 and (a - sin a)/a^3 to second order
        return 1.0 - a2 / 6.0, 0.5 - a2 / 24.0, 1.0 / 6.0 - a2 / 120.0

    def closed(angle, a2):
        sin = np.sin(angle)
        return sin / angle, (1.0 - np.cos(angle)) / a2, (angle - sin) / (a2 * angle)

    c1, c2, c3 = _coefficients(a2, series, closed)
    s = _skews(phis)
    ss = s @ s
    rots = _rodrigues(s, ss, c1, c2)
    return (rots, _rodrigues(s, ss, c2, c3)) if left_jacobian else rots


def batch_left_jacobian_inv(phis: np.ndarray) -> np.ndarray:
    """Inverses of the left Jacobians of (..., 3) vectors; valid below 2*pi."""
    a2 = (phis * phis).sum(axis=-1)
    if float(a2.max(initial=0.0)) >= (2.0 * np.pi) ** 2:
        raise LogDomainError(
            f"left Jacobian singular at angle {math.sqrt(a2.max()):.6f}")
    (c2,) = _coefficients(
        a2, lambda a2: (1.0 / 12.0 + a2 / 720.0,),
        lambda angle, a2: ((1.0 - angle * np.sin(angle)
                            / (2.0 * (1.0 - np.cos(angle)))) / a2,))
    s = _skews(phis)
    return _rodrigues(s, s @ s, np.full_like(c2, -0.5), c2)


def batch_so3_log(rots: np.ndarray, validate: bool = False) -> np.ndarray:
    """so3_log over (..., 3, 3) rotations: (..., 3) principal rotation vectors.

    The same two regimes as so3_log, so it is as accurate up to pi: the
    antisymmetric-part formula where the trace exceeds -0.9, the quaternion
    beyond. validate checks every rotation as so3_log does.
    """
    if validate:
        require_rotation(rots)
    tr = rots[..., 0, 0] + rots[..., 1, 1] + rots[..., 2, 2]
    near_pi = tr <= -0.9
    angle = np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))
    small = angle < SMALL_ANGLE
    safe = np.where(small | near_pi, 1.0, angle)
    scale = np.where(small, 0.5 * (1.0 + angle * angle / 6.0),
                     0.5 * safe / np.sin(safe))
    out = np.stack([rots[..., 2, 1] - rots[..., 1, 2],
                    rots[..., 0, 2] - rots[..., 2, 0],
                    rots[..., 1, 0] - rots[..., 0, 1]], axis=-1)
    out *= scale[..., None]
    if near_pi.any():
        out[near_pi] = _log_via_quaternion(rots[near_pi])
    return out


def _log_via_quaternion(m: np.ndarray) -> np.ndarray:
    """The log's quaternion regime over (n, 3, 3) rotations of trace <= -0.9:
    Shepperd's method from the largest diagonal entry (the trace one never
    wins there); exactly at pi, the axis's largest-magnitude component is
    made positive."""
    n = np.arange(m.shape[0])
    i = np.argmax(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(1.0 + m[n, i, i] - m[n, j, j] - m[n, k, k]) * 2.0
    q = np.empty((m.shape[0], 4))
    q[:, 0] = (m[n, k, j] - m[n, j, k]) / s
    q[n, 1 + i] = 0.25 * s
    q[n, 1 + j] = (m[n, i, j] + m[n, j, i]) / s
    q[n, 1 + k] = (m[n, i, k] + m[n, k, i]) / s
    q[q[:, 0] < 0.0] *= -1.0
    w, vec = q[:, 0], q[:, 1:]
    norm = np.sqrt((vec * vec).sum(axis=-1))
    axis = vec / norm[:, None]
    at_pi = w < 1e-9
    # exactly at pi both signs represent the same rotation
    flip = at_pi & (axis[n, np.argmax(np.abs(axis), axis=-1)] < 0.0)
    axis[flip] *= -1.0
    return np.where(at_pi, np.pi, 2.0 * np.arctan2(norm, w))[:, None] * axis


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
