import numpy as np
import pytest

from malrobust.nn import MlpClassifier


def linear_binary_model(direction, bias=(0.0, 0.0)):
    """Single-layer 2-class model whose input loss-gradient for y=1 is a
    positive multiple of `direction` everywhere (logit margin z0 - z1
    equals x . direction + bias margin)."""
    d = np.asarray(direction, dtype=float)
    W = np.stack([d / 2.0, -d / 2.0], axis=1)  # (dim, 2)
    b = np.asarray(bias, dtype=float)
    return MlpClassifier([W], [b])


def overflows_off_zero():
    """Predicts class 0 at [1, 0, 0, 0] with a positive, finite class-0 loss
    gradient on feature 2; any positive value of feature 2 sends a hidden
    unit with a 1e308 weight into the logits, which overflow."""
    W1 = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1e308], [0.0, 0.0]])
    W2 = np.array([[-1.0, 1.0], [-1e3, 1e3]])
    return MlpClassifier([W1, W2], [np.zeros(2), np.array([5.0, 0.0])])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
