"""Contrastive losses: Eq. 5 semantics, InfoNCE, negative sampling.

The paper's loss forms are :class:`repro.contrast.Euclidean` (Eq. 5) and
:class:`repro.contrast.InfoNCE`; the two helpers below give them the
function-style signatures these semantics tests are written against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.contrast import Euclidean, InfoNCE, sample_negative_indices


def euclidean_contrastive_loss(h_hat, h_tilde, negatives, weights=None):
    return Euclidean().pair_loss(h_hat, h_tilde, negatives=negatives,
                                 weights=weights)


def infonce_loss(h_hat, h_tilde, temperature=0.5, weights=None,
                 symmetric=True):
    objective = InfoNCE(temperature=temperature, symmetric=symmetric)
    return objective.pair_loss(h_hat, h_tilde, weights=weights)


def random_embeddings(rng, m=12, d=6):
    return Tensor(rng.normal(size=(m, d)), requires_grad=True)


class TestEuclideanLoss:
    def test_identical_views_give_negative_loss(self, rng):
        """Positive distance 0, negatives positive → loss < 0 (Eq. 5)."""
        h = random_embeddings(rng)
        negs = sample_negative_indices(12, 4, rng)
        loss = euclidean_contrastive_loss(h, Tensor(h.data.copy()), negs)
        assert loss.item() < 0

    def test_decreases_when_positives_align(self, rng):
        h1 = random_embeddings(rng)
        h2 = random_embeddings(rng)
        negs = sample_negative_indices(12, 4, rng)
        far = euclidean_contrastive_loss(h1, h2, negs).item()
        near = euclidean_contrastive_loss(h1, Tensor(h1.data.copy()), negs).item()
        assert near < far

    def test_bounded_by_normalization(self, rng):
        """With l2-normalized embeddings each squared distance ≤ 4, so the
        loss is within [−4, 4] regardless of raw magnitudes."""
        h1 = Tensor(rng.normal(size=(10, 4)) * 1e6)
        h2 = Tensor(rng.normal(size=(10, 4)) * 1e-6)
        negs = sample_negative_indices(10, 3, rng)
        loss = euclidean_contrastive_loss(h1, h2, negs).item()
        assert -4.0 <= loss <= 4.0

    def test_weights_reweight_anchors(self, rng):
        h1 = random_embeddings(rng, m=4)
        h2 = random_embeddings(rng, m=4)
        negs = sample_negative_indices(4, 2, rng)
        w_first = np.array([100.0, 1e-9, 1e-9, 1e-9])
        w_last = np.array([1e-9, 1e-9, 1e-9, 100.0])
        l_first = euclidean_contrastive_loss(h1, h2, negs, weights=w_first).item()
        l_last = euclidean_contrastive_loss(h1, h2, negs, weights=w_last).item()
        assert l_first != pytest.approx(l_last)

    def test_gradients_flow_to_both_views(self, rng):
        h1 = random_embeddings(rng)
        h2 = random_embeddings(rng)
        negs = sample_negative_indices(12, 4, rng)
        euclidean_contrastive_loss(h1, h2, negs).backward()
        assert h1.grad is not None and np.abs(h1.grad).sum() > 0
        assert h2.grad is not None and np.abs(h2.grad).sum() > 0

    def test_negatives_shape_validated(self, rng):
        h = random_embeddings(rng, m=5)
        with pytest.raises(ValueError):
            euclidean_contrastive_loss(h, h, np.zeros((3, 2), dtype=int))

    def test_weight_length_validated(self, rng):
        h = random_embeddings(rng, m=5)
        negs = sample_negative_indices(5, 2, rng)
        with pytest.raises(ValueError):
            euclidean_contrastive_loss(h, h, negs, weights=np.ones(3))


class TestInfoNCE:
    def test_matches_manual_computation(self, rng):
        """Cross-check one direction against a dense numpy recomputation."""
        m, d, t = 5, 3, 0.5
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(m, d))
        loss = infonce_loss(Tensor(a), Tensor(b), temperature=t, symmetric=False).item()

        z1 = a / np.linalg.norm(a, axis=1, keepdims=True)
        z2 = b / np.linalg.norm(b, axis=1, keepdims=True)
        cross = z1 @ z2.T / t
        intra = z1 @ z1.T / t
        manual = 0.0
        for i in range(m):
            denom_terms = np.concatenate([cross[i], np.delete(intra[i], i)])
            log_denom = np.log(np.exp(denom_terms - denom_terms.max()).sum()) + denom_terms.max()
            manual += (log_denom - cross[i, i]) / m
        assert loss == pytest.approx(manual, rel=1e-6)

    def test_aligned_pairs_score_lower(self, rng):
        a = rng.normal(size=(10, 4))
        aligned = infonce_loss(Tensor(a), Tensor(a.copy())).item()
        shuffled = infonce_loss(Tensor(a), Tensor(a[::-1].copy())).item()
        assert aligned < shuffled

    def test_symmetric_averages_directions(self, rng):
        a, b = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        sym = infonce_loss(Tensor(a), Tensor(b), symmetric=True).item()
        d1 = infonce_loss(Tensor(a), Tensor(b), symmetric=False).item()
        d2 = infonce_loss(Tensor(b), Tensor(a), symmetric=False).item()
        assert sym == pytest.approx((d1 + d2) / 2, rel=1e-9)

    def test_temperature_validated(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            infonce_loss(a, a, temperature=0.0)

    def test_gradients_flow(self, rng):
        h1 = random_embeddings(rng, m=6)
        h2 = random_embeddings(rng, m=6)
        infonce_loss(h1, h2).backward()
        assert np.abs(h1.grad).sum() > 0


class TestNegativeSampling:
    def test_shape(self, rng):
        negs = sample_negative_indices(10, 4, rng)
        assert negs.shape == (10, 4)

    def test_never_self(self, rng):
        negs = sample_negative_indices(50, 8, rng)
        anchors = np.arange(50)[:, None]
        assert (negs != anchors).all()

    def test_indices_in_range(self, rng):
        negs = sample_negative_indices(20, 5, rng)
        assert negs.min() >= 0 and negs.max() < 20

    def test_requires_two_anchors(self, rng):
        with pytest.raises(ValueError):
            sample_negative_indices(1, 1, rng)

    def test_requires_positive_count(self, rng):
        with pytest.raises(ValueError):
            sample_negative_indices(5, 0, rng)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 10), st.integers(0, 10_000))
    def test_property_no_self_negatives(self, m, q, seed):
        rng = np.random.default_rng(seed)
        negs = sample_negative_indices(m, q, rng)
        assert (negs != np.arange(m)[:, None]).all()
        assert negs.min() >= 0 and negs.max() < m
