"""Finite-difference verification of every differentiable op.

One parametrized case per public function of ``repro.autograd.ops`` and
``repro.autograd.functional``; a meta-test asserts the case list actually
covers the full public surface, so adding an op without a gradcheck case
fails the suite.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import functional as F
from repro.autograd import gradcheck, ops
from repro.autograd.gradcheck import GradcheckResult

RNG = np.random.default_rng(42)


def _mat(rows=3, cols=4, low=-2.0, high=2.0, away_from=None, margin=0.25):
    """Random matrix; optionally pushed ``margin`` away from a kink point."""
    x = RNG.uniform(low, high, size=(rows, cols))
    if away_from is not None:
        x = np.where(np.abs(x - away_from) < margin,
                     x + np.sign(x - away_from + 1e-12) * margin, x)
    return x


A = _mat()
B = _mat()
POS = _mat(low=0.5, high=2.0)
KINKED = _mat(away_from=0.0)          # for relu/abs/leaky_relu/elu
NONZERO_ROWS = _mat(low=0.5, high=2.0)  # for l2_normalize_rows
SQUARE = _mat(3, 3)
VEC = RNG.uniform(-2.0, 2.0, size=4)
LABELS = np.array([0, 2, 1])
TARGETS01 = RNG.uniform(0.05, 0.95, size=(3, 4))
SPARSE = sp.random(3, 3, density=0.6, random_state=7, format="csr")
IDX = np.array([0, 2, 1, 2])
BIAS3 = RNG.uniform(0.1, 0.6, size=3)
ZEROS = np.zeros((3, 4))
# (3, 2) negative-index matrix for the gather kernel and the sampled
# objective paths; column 2 repeats across rows to exercise scatter-add.
NEGS = np.array([[1, 2], [0, 2], [0, 1]])
POS_SCORES = RNG.uniform(-1.5, 1.5, size=3)
NEG_SCORES = RNG.uniform(-1.5, 1.5, size=5)
WEIGHTS3 = np.array([1.0, 3.0, 2.0])


# Each case: (name, fn, inputs).  ``name`` doubles as the coverage key —
# everything before the first "/" must be the op's public name.
OP_CASES = [
    ("add", lambda a, b: ops.add(a, b), [A, B]),
    ("add/broadcast", lambda a, b: ops.add(a, b), [A, VEC]),
    ("sub", lambda a, b: ops.sub(a, b), [A, B]),
    ("mul", lambda a, b: ops.mul(a, b), [A, B]),
    ("div", lambda a, b: ops.div(a, b), [A, POS]),
    ("neg", lambda a: ops.neg(a), [A]),
    ("power", lambda a: ops.power(a, 3.0), [A]),
    ("power/fractional", lambda a: ops.power(a, 1.5), [POS]),
    ("exp", lambda a: ops.exp(a), [A]),
    ("log", lambda a: ops.log(a), [POS]),
    ("log/eps", lambda a: ops.log(a, eps=0.1), [POS]),
    # Boundary regression: at a == 0 the eps-clamped backward must return
    # the finite 1/eps, not divide by the raw (zero) input.
    ("log/boundary-eps", lambda a: ops.log(a, eps=0.5), [ZEROS]),
    ("sqrt", lambda a: ops.sqrt(a), [POS]),
    ("abs", lambda a: ops.abs(a), [KINKED]),
    ("relu", lambda a: ops.relu(a), [KINKED]),
    ("leaky_relu", lambda a: ops.leaky_relu(a, 0.2), [KINKED]),
    ("sigmoid", lambda a: ops.sigmoid(a), [A]),
    ("tanh", lambda a: ops.tanh(a), [A]),
    ("elu", lambda a: ops.elu(a, alpha=1.3), [KINKED]),
    ("softmax", lambda a: ops.softmax(a), [A]),
    ("softmax/axis0", lambda a: ops.softmax(a, axis=0), [A]),
    ("log_softmax", lambda a: ops.log_softmax(a), [A]),
    ("matmul", lambda a, b: ops.matmul(a, b), [A, B.T.copy()]),
    ("spmm", lambda d: ops.spmm(SPARSE, d), [SQUARE]),
    ("transpose", lambda a: ops.transpose(a), [A]),
    ("sum", lambda a: ops.sum(a), [A]),
    ("sum/axis", lambda a: ops.sum(a, axis=1), [A]),
    ("sum/keepdims", lambda a: ops.sum(a, axis=0, keepdims=True), [A]),
    ("mean", lambda a: ops.mean(a), [A]),
    ("mean/axis", lambda a: ops.mean(a, axis=0), [A]),
    ("reshape", lambda a: ops.reshape(a, (4, 3)), [A]),
    ("index", lambda a: ops.index(a, (np.arange(3), LABELS)), [A]),
    ("gather_rows", lambda a: ops.gather_rows(a, IDX), [A]),
    ("concat", lambda a, b: ops.concat([a, b], axis=0), [A, B]),
    ("concat/axis1", lambda a, b: ops.concat([a, b], axis=1), [A, B]),
    ("l2_normalize_rows", lambda a: ops.l2_normalize_rows(a), [NONZERO_ROWS]),
    # The generator is rebuilt from the same seed on every call, so every
    # finite-difference evaluation sees the identical dropout mask.
    ("dropout", lambda a: ops.dropout(a, 0.4, np.random.default_rng(7)), [A]),
    # Fused kernels: every activation branch plus the bias/no-bias paths.
    ("spmm_bias_act",
     lambda d, b: ops.spmm_bias_act(SPARSE, d, bias=b, activation="tanh"), [SQUARE, BIAS3]),
    ("spmm_bias_act/relu",
     lambda d, b: ops.spmm_bias_act(SPARSE, d, bias=b, activation="relu"), [SQUARE, BIAS3]),
    ("spmm_bias_act/leaky",
     lambda d: ops.spmm_bias_act(SPARSE, d, activation="leaky_relu", negative_slope=0.2),
     [SQUARE]),
    ("spmm_bias_act/elu",
     lambda d: ops.spmm_bias_act(SPARSE, d, activation="elu", alpha=1.3), [SQUARE]),
    ("spmm_bias_act/plain", lambda d: ops.spmm_bias_act(SPARSE, d), [SQUARE]),
    ("linear_act",
     lambda x, w, b: ops.linear_act(x, w, bias=b, activation="elu"), [A, B.T.copy(), BIAS3]),
    ("linear_act/sigmoid",
     lambda x, w: ops.linear_act(x, w, activation="sigmoid"), [A, B.T.copy()]),
    ("linear_act/relu",
     lambda x, w, b: ops.linear_act(x, w, bias=b, activation="relu"), [A, B.T.copy(), BIAS3]),
    ("linear_act/plain",
     lambda x, w, b: ops.linear_act(x, w, bias=b), [A, B.T.copy(), BIAS3]),
    ("normalize_cosine_rowwise",
     lambda a, b: ops.normalize_cosine_rowwise(a, b), [NONZERO_ROWS, POS]),
    # Gathered similarity: rows of ``a`` against sampled columns of ``b``
    # (the O(n·k) subsampled-negatives kernel).  NEGS repeats column 2 so
    # the scatter-add path in the b-gradient is exercised.
    ("normalize_cosine_sim_gather",
     lambda a, b: ops.normalize_cosine_sim_gather(a, b, NEGS), [NONZERO_ROWS, POS]),
    ("normalize_cosine_sim_gather/self",
     lambda a: ops.normalize_cosine_sim_gather(a, a, NEGS), [NONZERO_ROWS]),
]

FUNCTIONAL_CASES = [
    ("mse_loss", lambda p: F.mse_loss(p, B), [A]),
    ("cross_entropy", lambda lg: F.cross_entropy(lg, LABELS), [A]),
    ("cross_entropy/weighted",
     lambda lg: F.cross_entropy(lg, LABELS, weights=np.array([1.0, 3.0, 2.0])),
     [A]),
    ("binary_cross_entropy_with_logits",
     lambda lg: F.binary_cross_entropy_with_logits(lg, TARGETS01), [A]),
    ("l2_regularization", lambda a, b: F.l2_regularization([a, b], 0.3), [A, B]),
    ("rowwise_sq_euclidean", lambda a, b: F.rowwise_sq_euclidean(a, b), [A, B]),
    ("cosine_similarity_matrix",
     lambda a, b: F.cosine_similarity_matrix(a, b), [NONZERO_ROWS, POS]),
    ("rowwise_cosine_similarity",
     lambda a, b: F.rowwise_cosine_similarity(a, b), [NONZERO_ROWS, POS]),
    ("bootstrap_cosine_loss",
     lambda a, b: F.bootstrap_cosine_loss(a, b), [NONZERO_ROWS, POS]),
]

# ----------------------------------------------------------------------
# Contrast layer: every objective × mode pair gets a finite-difference
# case.  Names follow "contrast:<objective>/<mode>[-variant]"; the
# coverage meta-test below walks the objective registry so a new
# objective without gradcheck cases for both modes fails the suite.
# ----------------------------------------------------------------------
from repro.contrast import get_objective  # noqa: E402


def _pair(name, **kwargs):
    obj = get_objective(name, **kwargs)
    return lambda a, b: obj.pair_loss(a, b)


def _pair_sampled(name, **kwargs):
    obj = get_objective(name, **kwargs)
    return lambda a, b: obj.pair_loss(a, b, negatives=NEGS)


def _score(name, **kwargs):
    obj = get_objective(name, **kwargs)
    return lambda p, n: obj.score_loss(p, n)


CONTRAST_CASES = [
    ("contrast:infonce/l2l", _pair("infonce", temperature=0.6), [NONZERO_ROWS, POS]),
    ("contrast:infonce/l2l-sampled",
     _pair_sampled("infonce", temperature=0.6), [NONZERO_ROWS, POS]),
    ("contrast:infonce/l2l-weighted",
     (lambda a, b: get_objective("infonce").pair_loss(a, b, weights=WEIGHTS3)),
     [NONZERO_ROWS, POS]),
    ("contrast:infonce/g2l", _score("infonce", temperature=0.6),
     [POS_SCORES, NEG_SCORES]),
    ("contrast:jsd/l2l", _pair("jsd"), [NONZERO_ROWS, POS]),
    ("contrast:jsd/l2l-sampled", _pair_sampled("jsd"), [NONZERO_ROWS, POS]),
    ("contrast:jsd/g2l", _score("jsd"), [POS_SCORES, NEG_SCORES]),
    ("contrast:jsd/g2l-weighted",
     (lambda p, n: get_objective("jsd").score_loss(p, n, weights=WEIGHTS3)),
     [POS_SCORES, NEG_SCORES]),
    ("contrast:barlow/l2l", _pair("barlow"), [A, B]),
    ("contrast:barlow/g2l", _score("barlow"), [POS_SCORES, NEG_SCORES]),
    ("contrast:bootstrap/l2l", _pair("bootstrap"), [NONZERO_ROWS, POS]),
    ("contrast:bootstrap/l2l-weighted",
     (lambda a, b: get_objective("bootstrap").pair_loss(a, b, weights=WEIGHTS3)),
     [NONZERO_ROWS, POS]),
    ("contrast:bootstrap/g2l", _score("bootstrap"), [POS_SCORES, NEG_SCORES]),
    ("contrast:margin/l2l", _pair("margin", margin=0.4), [NONZERO_ROWS, POS]),
    ("contrast:margin/l2l-sampled",
     _pair_sampled("margin", margin=0.4), [NONZERO_ROWS, POS]),
    ("contrast:margin/g2l", _score("margin", margin=0.4),
     [POS_SCORES, NEG_SCORES]),
    # Euclidean always needs sampled negatives in pair form (Eq. 5).
    ("contrast:euclidean/l2l-sampled",
     _pair_sampled("euclidean"), [NONZERO_ROWS, POS]),
    ("contrast:euclidean/l2l-weighted",
     (lambda a, b: get_objective("euclidean").pair_loss(
         a, b, negatives=NEGS, weights=WEIGHTS3)),
     [NONZERO_ROWS, POS]),
    ("contrast:euclidean/g2l", _score("euclidean"), [POS_SCORES, NEG_SCORES]),
]

ALL_CASES = OP_CASES + FUNCTIONAL_CASES + CONTRAST_CASES


@pytest.mark.parametrize(
    "fn,inputs", [case[1:] for case in ALL_CASES], ids=[c[0] for c in ALL_CASES]
)
def test_gradcheck(fn, inputs):
    result = gradcheck(fn, inputs)
    assert result.passed
    assert result.max_abs_error < 1e-4


def _public_functions(module):
    import inspect

    return {
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def test_every_op_has_a_gradcheck_case():
    covered = {case[0].split("/")[0] for case in ALL_CASES}
    missing_ops = _public_functions(ops) - covered
    missing_fn = _public_functions(F) - covered
    assert not missing_ops, f"ops without a gradcheck case: {sorted(missing_ops)}"
    assert not missing_fn, f"functional without a gradcheck case: {sorted(missing_fn)}"


def test_every_objective_mode_pair_has_a_gradcheck_case():
    """Walk the objective registry: each objective needs an L2L (pair_loss)
    and a G2L (score_loss) gradcheck case, so new objectives can't land
    without finite-difference coverage of both modes."""
    from repro.contrast import available_objectives

    covered = set()
    for case in CONTRAST_CASES:
        objective, mode = case[0].split(":", 1)[1].split("/", 1)
        covered.add((objective, mode.split("-")[0]))
    missing = []
    for objective in available_objectives():
        for mode in ("l2l", "g2l"):
            if (objective, mode) not in covered:
                missing.append(f"{objective}/{mode}")
    assert not missing, f"objective×mode without a gradcheck case: {missing}"


def test_gradcheck_catches_wrong_backward():
    """A deliberately broken backward must be flagged, not silently pass."""
    from repro.autograd.ops import _make
    from repro.autograd.tensor import ensure_tensor

    def bad_square(a):
        a = ensure_tensor(a)

        def backward(grad):
            if a.requires_grad:
                a._accumulate_grad(grad * 3.0 * a.data)  # wrong: d(x^2) != 3x

        return _make(a.data ** 2, (a,), backward)

    with pytest.raises(AssertionError, match="gradcheck failed"):
        gradcheck(bad_square, [POS])
    result = gradcheck(bad_square, [POS], raise_on_failure=False)
    assert isinstance(result, GradcheckResult)
    assert not result
    assert result.failures
