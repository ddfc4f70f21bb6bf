"""Objective semantics: registry, dense-vs-sampled consistency, score forms."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional
from repro.contrast import (
    BarlowTwins,
    BootstrapCosine,
    Euclidean,
    InfoNCE,
    available_objectives,
    get_objective,
    sample_negative_indices,
)


def _views(m=24, d=8, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(m, d))
    z1 = base + scale * rng.normal(size=(m, d)) * 0.1
    z2 = base + scale * rng.normal(size=(m, d)) * 0.1
    return Tensor(z1, requires_grad=True), Tensor(z2, requires_grad=True)


class TestRegistry:
    def test_available(self):
        assert available_objectives() == [
            "barlow", "bootstrap", "euclidean", "infonce", "jsd", "margin",
        ]

    def test_kwargs_filtered_to_constructor(self):
        """A shared hyperparameter bag works for every objective."""
        bag = dict(temperature=0.3, margin=0.7, lambda_offdiag=0.01)
        assert get_objective("infonce", **bag).temperature == 0.3
        assert get_objective("margin", **bag).margin == 0.7
        assert get_objective("barlow", **bag).lambda_offdiag == 0.01
        get_objective("bootstrap", **bag)  # accepts none of them: no error

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown objective"):
            get_objective("ntxent")

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            InfoNCE(temperature=0.0)
        with pytest.raises(ValueError):
            get_objective("margin", margin=-1.0)
        with pytest.raises(ValueError):
            BarlowTwins(lambda_offdiag=-0.1)


class TestInfoNCE:
    def test_sampled_approaches_dense_as_k_grows(self):
        """With k = m-1 distinct negatives the subsampled denominator sees
        the same pair set as the dense loss (up to the positive's presence),
        so the values must be close; small k is a coarser estimate."""
        z1, z2 = _views(m=16)
        dense = float(InfoNCE().pair_loss(z1, z2).item())
        m = 16
        all_neg = np.array([[j for j in range(m) if j != i] for i in range(m)])
        full = float(InfoNCE().pair_loss(z1, z2, negatives=all_neg).item())
        assert abs(full - dense) < 0.1
        small = float(
            InfoNCE().pair_loss(
                z1, z2,
                negatives=sample_negative_indices(m, 2, np.random.default_rng(0)),
            ).item()
        )
        # Fewer denominator terms -> smaller logsumexp -> smaller loss.
        assert small < full + 1e-9

    def test_asymmetric_halves_the_work(self):
        z1, z2 = _views()
        sym = InfoNCE(symmetric=True).pair_loss(z1, z2)
        one = InfoNCE(symmetric=False).pair_loss(z1, z2)
        other = InfoNCE(symmetric=False).pair_loss(z2, z1)
        np.testing.assert_allclose(
            float(sym.item()),
            0.5 * (float(one.item()) + float(other.item())),
            rtol=1e-12,
        )

    def test_score_loss_prefers_separated_scores(self):
        obj = InfoNCE()
        good = obj.score_loss(Tensor(np.full(4, 3.0)), Tensor(np.full(6, -3.0)))
        bad = obj.score_loss(Tensor(np.full(4, -3.0)), Tensor(np.full(6, 3.0)))
        assert float(good.item()) < float(bad.item())

    def test_weight_validation(self):
        z1, z2 = _views(m=6)
        with pytest.raises(ValueError, match="expected 6 weights"):
            InfoNCE().pair_loss(z1, z2, weights=np.ones(5))
        with pytest.raises(ValueError, match="positive sum"):
            InfoNCE().pair_loss(z1, z2, weights=np.zeros(6))

    def test_negatives_shape_validation(self):
        z1, z2 = _views(m=6)
        with pytest.raises(ValueError, match="num_anchors"):
            InfoNCE().pair_loss(z1, z2, negatives=np.zeros((3, 2), dtype=int))


class TestJSD:
    def test_score_loss_is_bce(self):
        """On scores, JSD is exactly BCE over [pos; neg] with 1/0 targets —
        the historical DGI discriminator loss."""
        rng = np.random.default_rng(3)
        pos = Tensor(rng.normal(size=5))
        neg = Tensor(rng.normal(size=5))
        got = get_objective("jsd").score_loss(pos, neg)
        from repro.autograd import ops

        logits = ops.concat([pos, neg], axis=0)
        targets = np.concatenate([np.ones(5), np.zeros(5)])
        want = functional.binary_cross_entropy_with_logits(logits, targets)
        assert float(got.item()) == float(want.item())

    def test_pair_loss_sampled_and_dense_agree_in_sign(self):
        z1, z2 = _views(m=12)
        obj = get_objective("jsd")
        dense = float(obj.pair_loss(z1, z2).item())
        sampled = float(
            obj.pair_loss(
                z1, z2,
                negatives=sample_negative_indices(12, 6, np.random.default_rng(1)),
            ).item()
        )
        assert dense > 0 and sampled > 0


class TestBarlowTwins:
    def test_identical_views_minimize_invariance_term(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(32, 6)))
        same = float(BarlowTwins().pair_loss(z, z).item())
        other = Tensor(rng.normal(size=(32, 6)))
        different = float(BarlowTwins().pair_loss(z, other).item())
        assert same < different

    def test_negative_free(self):
        assert not BarlowTwins.uses_negatives
        z1, z2 = _views()
        # negatives are ignored, not an error
        a = float(BarlowTwins().pair_loss(z1, z2).item())
        b = float(BarlowTwins().pair_loss(z1, z2, negatives=None).item())
        assert a == b


class TestBootstrapCosine:
    def test_matches_functional_form(self):
        z1, z2 = _views()
        got = BootstrapCosine().pair_loss(z1, z2)
        want = functional.bootstrap_cosine_loss(z1, z2)
        assert float(got.item()) == float(want.item())

    def test_weighted_uniform_equals_unweighted(self):
        z1, z2 = _views(m=10)
        unweighted = float(BootstrapCosine().pair_loss(z1, z2).item())
        weighted = float(
            BootstrapCosine().pair_loss(z1, z2, weights=np.full(10, 3.0)).item()
        )
        np.testing.assert_allclose(weighted, unweighted, rtol=1e-12)


class TestMarginMining:
    def test_aligned_views_with_margin_zero_loss_region(self):
        """Perfectly aligned positives with dissimilar negatives sit inside
        the margin -> zero hinge."""
        rng = np.random.default_rng(8)
        z = rng.normal(size=(10, 6))
        z1 = Tensor(z)
        z2 = Tensor(z.copy())
        obj = get_objective("margin", margin=0.01)
        # orthogonalized negatives are unlikely to violate a tiny margin
        loss = float(obj.pair_loss(z1, z2).item())
        assert loss < 0.5


class TestEuclidean:
    def test_requires_negatives(self):
        z1, z2 = _views()
        with pytest.raises(ValueError, match="needs sampled negatives"):
            Euclidean().pair_loss(z1, z2)
