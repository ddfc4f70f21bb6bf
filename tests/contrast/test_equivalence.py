"""Seed-for-seed equivalence of the contrast-layer refactor.

The reference trajectories below were captured on the pre-refactor
implementations (inline per-method losses) with the exact fixture graph
and hyperparameters used here.  Every method composed through the
contrast layer under its default objective × ``all`` sampler must
reproduce them to 1e-8 — the refactor moves code, it must not move
floats.
"""

import numpy as np
import pytest

from repro.baselines import get_method

KWARGS = dict(epochs=4, embedding_dim=8, hidden_dim=16, seed=0)

# Captured from the pre-refactor tree (inline losses), cora seed=3 scale=0.25.
REFERENCE_LOSSES = {
    "grace": [5.654061706092769, 5.662198389569422, 5.731176977691955,
              5.559432988506691],
    "gca": [5.563426478780737, 5.237736956945545, 5.363856772721078,
            5.149797382128668],
    "graphcl": [5.484124130696759, 5.168925039638889, 5.232045040767423,
                4.960180782272223],
    "adgcl": [5.4492737022299576, 5.1750499111370765, 5.147970340125212,
              4.9733045627030394],
    "dgi": [0.6958905993155399, 0.6917259399871621, 0.6860784055432398,
            0.678622254265899],
    "mvgrl": [0.6993837530484611, 0.6921306700301657, 0.6894325009294235,
              0.6841757081627338],
    "bgrl": [2.4809346728606783, 2.017810511096933, 1.6607712891647664,
             1.389215978681448],
    "afgrl": [2.360344507365685, 1.4420933874505715, 1.1333721204987512,
              0.8873624575865211],
    "e2gcl": [4.547301675400685, 4.213976768752556, 4.001879156440164,
              3.8804190927571094],
}

# E2GCL's Eq. 5 branch: inline sample_negative_indices -> UniformK mapping.
REFERENCE_EUCLIDEAN = [-0.4779594983735131, -1.00793731258055,
                       -1.273212794999344, -1.586896113308279]


@pytest.mark.parametrize("name", sorted(REFERENCE_LOSSES))
def test_method_reproduces_pre_refactor_losses(name, tiny_cora):
    method = get_method(name, **KWARGS)
    method.fit(tiny_cora)
    np.testing.assert_allclose(
        method.info.losses, REFERENCE_LOSSES[name], atol=1e-8,
        err_msg=f"{name}: contrast-layer refactor changed the loss sequence",
    )


def test_e2gcl_euclidean_reproduces_pre_refactor_losses(tiny_cora):
    method = get_method("e2gcl", loss="euclidean", **KWARGS)
    method.fit(tiny_cora)
    np.testing.assert_allclose(
        method.info.losses, REFERENCE_EUCLIDEAN, atol=1e-8,
        err_msg="euclidean: UniformK mapping changed the RNG draw",
    )
