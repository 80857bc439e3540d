import numpy as np
import pytest

from vcre import NumericalError
from vcre.neldermead import nelder_mead


def test_quadratic_1d():
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0])  # default restarts apply
    assert res.converged
    assert abs(res.x[0] - 3.0) < 1e-6


def rosenbrock(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def test_rosenbrock_with_restarts():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], restarts=2)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)
    assert res.fun < 1e-6
    assert res.restarts_used == 2


def test_iteration_budget_reports_nonconvergence():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_iter=1, restarts=0)
    assert not res.converged
    assert res.iterations == 1
    assert res.spread > 0
    # with restarts the budget applies per run, convergence still honest
    res2 = nelder_mead(rosenbrock, [-1.2, 1.0], max_iter=1)
    assert not res2.converged


def test_monotone_best_history():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], restarts=1)
    hist = res.best_history
    assert hist.size > 0
    assert np.all(np.diff(hist) <= 1e-12)


def test_nonfinite_start_rejected():
    with pytest.raises(NumericalError):
        nelder_mead(lambda x: float("inf"), [0.0])


def test_nan_treated_as_infinite():
    # NaN away from the optimum must not break the ordering logic
    def f(x):
        if x[0] < -5:
            return float("nan")
        return (x[0] - 1.0) ** 2

    res = nelder_mead(f, [0.0])
    assert abs(res.x[0] - 1.0) < 1e-6


def test_deterministic():
    a = nelder_mead(rosenbrock, [-1.2, 1.0], restarts=1)
    b = nelder_mead(rosenbrock, [-1.2, 1.0], restarts=1)
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun
    assert a.iterations == b.iterations


def test_counts_function_evaluations():
    res = nelder_mead(lambda x: (x[0] + 2.0) ** 2, [0.0])
    assert res.n_eval > 0
