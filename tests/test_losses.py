import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovklearn.exceptions import ConfigError, DimensionMismatch
from ovklearn.losses import (
    EpsilonInsensitive,
    SquaredLoss,
    decode_label,
    encode_labels,
    loss_from_name,
)


def test_squared_hand_values():
    loss = SquaredLoss()
    y = np.array([3.0, 4.0])
    assert loss.value(y, y) == 0.0
    assert loss.value(np.zeros(2), y) == 12.5
    assert np.array_equal(loss.gradient(np.zeros(2), y), [-3.0, -4.0])


def test_epsilon_hand_values():
    loss = EpsilonInsensitive(epsilon=1.0)
    y = np.array([3.0, 4.0])
    assert loss.value(np.zeros(2), y) == 4.0
    wide = EpsilonInsensitive(epsilon=10.0)
    assert wide.value(np.zeros(2), y) == 0.0
    assert np.array_equal(wide.gradient(np.zeros(2), y), [0.0, 0.0])


def test_epsilon_gradient_unit_norm_outside_tube():
    loss = EpsilonInsensitive(epsilon=0.5)
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = rng.normal(size=3)
        y = z + rng.normal(size=3) * 5.0
        if np.linalg.norm(z - y) <= 0.5:
            continue
        g = loss.gradient(z, y)
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-12
        assert np.allclose(g, (z - y) / np.linalg.norm(z - y), atol=1e-12)


def test_kink_subgradient_is_zero():
    loss = EpsilonInsensitive(epsilon=5.0)
    z = np.zeros(2)
    y = np.array([3.0, 4.0])  # ||z - y|| == epsilon exactly
    assert np.array_equal(loss.gradient(z, y), [0.0, 0.0])
    zero_eps = EpsilonInsensitive(epsilon=0.0)
    assert np.array_equal(zero_eps.gradient(y, y), [0.0, 0.0])
    assert zero_eps.value(y, y) == 0.0


def test_gradient_finite_differences():
    # central differences; epsilon-insensitive points are resampled away
    # from the kink and the non-differentiable origin
    rng = np.random.default_rng(22)
    eps_loss = EpsilonInsensitive(epsilon=0.7)
    h = 1e-6
    for loss in (SquaredLoss(), eps_loss):
        checked = 0
        while checked < 100:
            d = int(rng.integers(1, 6))
            z = rng.normal(size=d)
            y = rng.normal(size=d)
            gap = np.linalg.norm(z - y)
            if isinstance(loss, EpsilonInsensitive) and (
                abs(gap - loss.epsilon) < 0.05 or gap < 0.05
            ):
                continue
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            directional = float(loss.gradient(z, y) @ v)
            numeric = (loss.value(z + h * v, y) - loss.value(z - h * v, y)) / (2 * h)
            assert abs(directional - numeric) <= 1e-4 * max(1.0, abs(numeric))
            checked += 1


def test_convexity_probe():
    rng = np.random.default_rng(23)
    for loss in (SquaredLoss(), EpsilonInsensitive(epsilon=0.3)):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            z1, z2, y = rng.normal(size=(3, d))
            t = float(rng.uniform())
            mixed = loss.value(t * z1 + (1 - t) * z2, y)
            assert mixed <= t * loss.value(z1, y) + (1 - t) * loss.value(z2, y) + 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_convexity_property(seed, t):
    rng = np.random.default_rng(seed)
    z1, z2, y = rng.normal(size=(3, 3))
    loss = EpsilonInsensitive(epsilon=float(rng.uniform(0.0, 2.0)))
    mixed = loss.value(t * z1 + (1 - t) * z2, y)
    assert mixed <= t * loss.value(z1, y) + (1 - t) * loss.value(z2, y) + 1e-9


def test_lipschitz_probe():
    # |l(z1, y) - l(z2, y)| <= C ||z1 - z2|| with C = 1
    rng = np.random.default_rng(24)
    loss = EpsilonInsensitive(epsilon=0.4)
    for _ in range(200):
        z1, z2, y = rng.normal(size=(3, 4)) * 3.0
        gap = abs(loss.value(z1, y) - loss.value(z2, y))
        assert gap <= np.linalg.norm(z1 - z2) + 1e-12
    assert loss.lipschitz == 1.0
    assert SquaredLoss().lipschitz is None


def test_values_nonnegative():
    rng = np.random.default_rng(25)
    for loss in (SquaredLoss(), EpsilonInsensitive(epsilon=1.0)):
        for _ in range(50):
            z, y = rng.normal(size=(2, 3))
            assert loss.value(z, y) >= 0.0


def test_encode_decode():
    assert np.array_equal(encode_labels(2, 4), [0.0, 0.0, 1.0, 0.0])
    assert decode_label([0.1, 0.9, 0.3]) == 1
    assert decode_label([0.5, 0.5]) == 0  # ties resolve to the lowest index
    for d in (1, 3, 6):
        for k in range(d):
            assert decode_label(encode_labels(k, d)) == k
    with pytest.raises(ValueError):
        encode_labels(4, 4)
    with pytest.raises(ValueError):
        encode_labels(-1, 4)


def test_loss_from_name():
    assert isinstance(loss_from_name("squared"), SquaredLoss)
    assert isinstance(loss_from_name(" squared "), SquaredLoss)
    eps = loss_from_name("eps(0.5)")
    assert isinstance(eps, EpsilonInsensitive)
    assert eps.epsilon == 0.5
    with pytest.raises(ConfigError):
        loss_from_name("hinge")
    with pytest.raises(ConfigError):
        loss_from_name("eps(abc)")
    for spec in ("eps(-1)", "eps(nan)", "eps(inf)", "eps(-inf)"):
        with pytest.raises(ConfigError):
            loss_from_name(spec)


def test_negative_epsilon_rejected():
    with pytest.raises(ConfigError):
        EpsilonInsensitive(epsilon=-0.1)


def test_dimension_mismatch():
    loss = SquaredLoss()
    with pytest.raises(DimensionMismatch):
        loss.value(np.zeros(2), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        EpsilonInsensitive().gradient(np.zeros(2), np.zeros(3))


def test_names():
    assert SquaredLoss().name() == "squared"
    assert EpsilonInsensitive(epsilon=0.25).name() == "eps(0.25)"


@pytest.mark.parametrize("epsilon", [0.0, 0.1234567, 1e-7, 3.0])
def test_epsilon_name_parses_back_exactly(epsilon):
    loss = EpsilonInsensitive(epsilon=epsilon)
    assert loss_from_name(loss.name()) == loss
