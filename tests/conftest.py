import numpy as np
import pytest

from imufill import kinematics as kin


def random_rotations(rng, *shape):
    """Random rotation matrices (det +1) via sign-fixed QR."""
    a = rng.standard_normal(shape + (3, 3))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.einsum("...ii->...i", r))[..., None, :]
    neg = np.linalg.det(q) < 0
    if neg.any():
        q[neg, :, 0] *= -1
    return q


def toy_tree():
    """Two segments, one site and one contact point: for code that must
    not assume the default skeleton's sizes."""
    return kin.KinematicTree(
        names=("root", "tip"), parents=np.array([-1, 0]),
        offsets=np.array([[0.0, 0, 0], [0.1, -1.0, 0.2]]), mass_fractions=np.array([0.5, 0.5]),
        site_names=("s",), site_segments=np.array([1]), site_offsets=np.array([[0.05, -0.3, 0.0]]),
        contact_names=("c",), contact_segments=np.array([1]), contact_offsets=np.array([[0.0, -0.1, 0.1]]),
    )


@pytest.fixture(scope="session")
def tree():
    return kin.default_tree()
