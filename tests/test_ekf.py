import numpy as np

from objectslam.ekf import INVARIANT, STANDARD
from objectslam.group import rot_block, tangent_dim

from test_riekf import random_filter_state


def test_error_inverts_retraction_for_both_conventions():
    # NEES judges a covariance by conv.error, so it must recover exactly the
    # correction that conv.retract applied
    rng = np.random.default_rng(40)
    for conv in (INVARIANT, STANDARD):
        for _ in range(50):
            k = int(rng.integers(1, 4))
            mean = random_filter_state(rng, k=k).mean
            delta = rng.normal(size=tangent_dim(k))
            for i in range(k + 1):
                n = np.linalg.norm(delta[rot_block(i)])
                if n >= np.pi - 0.1:
                    delta[rot_block(i)] *= (np.pi - 0.1) * rng.uniform() / n
            err = conv.error(conv.retract(mean, delta), mean)
            assert np.max(np.abs(err - delta)) < 1e-12, conv.name
