"""The benchmark's dense reference against the identity problem's closed form.

For ``identity`` (A = I, Q = I, R = theta I, mu_x = 0, gamma(1e-4) prior),
Psi = (1 + theta) I, so

    F(theta) = 1e-4 theta + m/2 log(1 + theta) + |b|^2 / (2 (1 + theta)),
    x_hat(theta) = b / (1 + theta),

and dF/dtheta = 0 is a quadratic in u = 1 + theta.

    python3 -m pytest bench/test_oracle.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
from hypermarg import make_test_problem  # noqa: E402

RATE = 1e-4


@pytest.fixture(scope="module")
def problem():
    return make_test_problem("identity", m=24, seed=3)


def closed_form_F(problem, theta):
    u = 1.0 + theta
    bb = float(problem.b @ problem.b)
    return RATE * theta + 0.5 * problem.m * np.log(u) + bb / (2.0 * u)


@pytest.mark.parametrize("theta", [1e-6, 0.03, 0.5, 1.0])
def test_psi_is_scaled_identity(problem, theta):
    mat = oracle.dense_psi(problem, np.array([theta]))
    np.testing.assert_allclose(mat, (1.0 + theta) * np.eye(problem.m), rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta", [1e-6, 0.03, 0.5, 1.0])
def test_objective_matches_closed_form(problem, theta):
    got = oracle.objective(problem, np.array([theta]))
    assert got == pytest.approx(closed_form_F(problem, theta), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("theta", [1e-6, 0.5])
def test_posterior_mean_matches_closed_form(problem, theta):
    got = oracle.posterior_mean(problem, np.array([theta]))
    np.testing.assert_allclose(got, problem.b / (1.0 + theta), rtol=1e-14, atol=0)


def test_minimize_finds_the_stationary_point(problem):
    m = problem.m
    bb = float(problem.b @ problem.b)
    # RATE u^2 + (m/2) u - |b|^2/2 = 0, positive root
    u = (-m / 2 + np.sqrt(m * m / 4 + 2 * RATE * bb)) / (2 * RATE)
    theta_star = u - 1.0
    assert problem.box.lower[0] < theta_star < problem.box.upper[0]
    theta, f = oracle.minimize(problem, [problem.box.center(), problem.box.upper])
    # the checks use F_min, which is flat in theta near the minimum
    assert f == pytest.approx(closed_form_F(problem, theta_star), rel=1e-10)
    assert theta[0] == pytest.approx(theta_star, rel=1e-2)


def test_in_box(problem):
    assert oracle.in_box(problem, problem.box.lower)
    assert oracle.in_box(problem, problem.box.upper)
    assert not oracle.in_box(problem, problem.box.upper + 1e-12)
