"""Checks for model_core.bessel_j0, the J0 behind the coherence model
(scipy.special.j0 wrapped with the package's input contract).

The frozen reference values below were computed with the quadrature oracle in
oracles.py (integral representation of J0, adaptive Simpson), which shares no
code with scipy's implementation under test.
"""
import math

import numpy as np
import pytest

from linecancel.model_core import bessel_j0

from oracles import bessel_j0_quadrature

# First positive zero of J0, frozen from the oracle via bisection.
J0_FIRST_ZERO = 2.404825557695773

# Oracle-frozen values across the fitted range of arguments, plus the value
# the coherence model hits at its worked example.
FROZEN = {
    1.0: 0.7651976865579667,
    10.0 / 3.0: -0.35142283429330196,
    8.0: 0.17165080713755365,
    55.3: -0.048163104799358473,
}


def test_zero_argument_is_one():
    assert bessel_j0(0.0) == 1.0


def test_frozen_oracle_values():
    for z, ref in FROZEN.items():
        assert abs(bessel_j0(z) - ref) <= 1e-10, f"z={z}"


def test_first_zero():
    assert abs(bessel_j0(J0_FIRST_ZERO)) <= 1e-9


def test_random_draws_match_quadrature_oracle():
    rng = np.random.default_rng(20260822)
    for z in rng.uniform(0.0, 60.0, size=40):
        assert abs(bessel_j0(z) - bessel_j0_quadrature(z)) <= 1e-10


def test_even_in_sign():
    z = np.array([0.3, 2.7, 11.9, 12.1, 40.0])
    assert np.array_equal(bessel_j0(-z), bessel_j0(z))


def test_scalar_in_float_out():
    out = bessel_j0(1.5)
    assert isinstance(out, float)


def test_array_in_array_out():
    z = np.array([0.0, 1.0, 13.0])
    out = bessel_j0(z)
    assert isinstance(out, np.ndarray)
    assert out.shape == z.shape
    assert out[0] == 1.0


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        bessel_j0(float("nan"))
    with pytest.raises(ValueError):
        bessel_j0(np.array([1.0, math.inf]))
