"""Tests for the finite-difference checking harness itself."""

import numpy as np
import pytest

from unicom import check_selection_gradients, finite_difference, gradcheck, max_relative_error
from unicom.errors import ValidationError


class TestFiniteDifference:
    def test_quadratic_gradient(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = finite_difference(lambda v: float(np.sum(v * v)), x)
        np.testing.assert_allclose(grad, 2 * x, atol=1e-8)

    def test_relative_error_scales(self):
        assert max_relative_error(np.array([2.0]), np.array([2.0])) == 0.0
        assert max_relative_error(np.array([2.0]), np.array([4.0])) == 0.5
        # small magnitudes are compared absolutely (denominator floor of 1)
        assert max_relative_error(np.array([1e-9]), np.array([0.0])) == 1e-9


class TestCheckSelectionGradients:
    def test_analytic_gradients_pass(self):
        report = check_selection_gradients(trials=20, seed=1)
        assert report.passed
        assert report.max_error < 1e-5

    def test_injected_sign_flip_is_caught(self, flipped_gradient):
        report = check_selection_gradients(trials=5, seed=1)
        assert not report.passed
        assert report.failures > 0

    def test_nan_numeric_gradient_fails(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "finite_difference", lambda f, x, step: np.full_like(x, np.nan))
        assert not check_selection_gradients(trials=2, seed=1).passed

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            check_selection_gradients(trials=0)
