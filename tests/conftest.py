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


def ref_forward_kinematics(tree, rotations, root_position):
    """Forward kinematics walked one segment at a time, with its own
    orientation loop: the reference that the position operator and its
    product are held to."""
    rotations = np.asarray(rotations, dtype=np.float64)
    root_position = np.asarray(root_position, dtype=np.float64)
    S = tree.n_segments
    G = np.empty_like(rotations)
    P = np.empty(rotations.shape[:-3] + (S, 3))
    G[..., 0, :, :] = rotations[..., 0, :, :]
    P[..., 0, :] = root_position
    for i in range(1, S):
        p = tree.parents[i]
        G[..., i, :, :] = G[..., p, :, :] @ rotations[..., i, :, :]
        P[..., i, :] = P[..., p, :] + np.einsum("...ij,j->...i", G[..., p, :, :], tree.offsets[i])
    sites = P[..., tree.site_segments, :] + np.einsum(
        "...sij,sj->...si", G[..., tree.site_segments, :, :], tree.site_offsets
    )
    contacts = P[..., tree.contact_segments, :] + np.einsum(
        "...cij,cj->...ci", G[..., tree.contact_segments, :, :], tree.contact_offsets
    )
    return kin.FKResult(globals_=G, joints=P, sites=sites, contacts=contacts)


@pytest.fixture(scope="session")
def tree():
    return kin.default_tree()
