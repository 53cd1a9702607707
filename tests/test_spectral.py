"""Power-iteration spectral radius against a dense eigensolver oracle."""

import math

import numpy as np
import pytest

from graphirr import (
    ConvergenceError,
    Graph,
    compute_all,
    cs_index,
    lambda1,
    randic,
    rho,
)
from graphirr.generators import antiregular, complete, cycle, gnp, path, star


def eigvalsh_lambda1(g):
    """Independent oracle: dense symmetric eigensolver."""
    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])


def test_star_lambda1_is_sqrt5():
    result = lambda1(star(6))
    assert result.lambda1 == pytest.approx(math.sqrt(5), abs=1e-10)
    assert result.iterations >= 1
    assert result.residual <= 1e-10


def test_lambda1_matches_dense_solver_on_named_graphs():
    for g in (path(4), cycle(5), complete(6), antiregular(6), star(9), antiregular(8)):
        assert lambda1(g).lambda1 == pytest.approx(eigvalsh_lambda1(g), abs=1e-8)


def test_lambda1_matches_dense_solver_on_random_connected():
    from graphirr import is_connected

    found = 0
    seed = 0
    while found < 25:
        g = gnp(9, 0.35, seed=seed)
        seed += 1
        if not is_connected(g):
            continue
        found += 1
        assert lambda1(g).lambda1 == pytest.approx(eigvalsh_lambda1(g), abs=1e-8)


def test_lambda1_input_validation():
    with pytest.raises(ValueError):
        lambda1(path(4), tolerance=0.0)
    with pytest.raises(ValueError):
        lambda1(path(4), tolerance=-1e-10)
    with pytest.raises(ValueError):
        lambda1(path(4), max_iterations=0)
    with pytest.raises(ValueError):
        lambda1(Graph(4, [(0, 1), (2, 3)]))  # disconnected


def test_power_iteration_settings_checked_for_compute_all():
    disconnected = Graph(4, [(0, 1), (2, 3)])
    for g in (path(4), disconnected):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            compute_all(g, -1.0).cs
        with pytest.raises(ValueError, match="tolerance must be positive"):
            compute_all(g, float("nan")).cs
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            compute_all(g, max_iterations=0).cs
    with pytest.raises(ValueError, match="tolerance must be positive"):
        cs_index(path(4), tolerance=0.0)
    # the settings only matter to power iteration, which runs at the first cs read
    r = compute_all(path(4), -1.0, max_iterations=0)
    assert (r.irr_t, r.rho) == (4, pytest.approx(rho(path(4))))


def test_lambda1_single_vertex():
    assert lambda1(complete(1)).lambda1 == pytest.approx(0.0, abs=1e-12)
    assert lambda1(complete(2)).lambda1 == pytest.approx(1.0, abs=1e-10)


def test_convergence_error_carries_state():
    with pytest.raises(ConvergenceError) as info:
        lambda1(star(6), max_iterations=1)
    err = info.value
    assert err.iterations == 1
    assert isinstance(err.estimate, float)
    assert err.residual > 1e-10


def test_cs_index_zero_on_regular():
    for g in (complete(4), cycle(5), complete(2)):
        assert cs_index(g) == pytest.approx(0.0, abs=1e-9)


def test_cs_index_star():
    # lambda1 = sqrt(5), mean degree 10/6
    assert cs_index(star(6)) == pytest.approx(math.sqrt(5) - 10 / 6, abs=1e-9)


def test_randic_values():
    assert randic(complete(4)) == pytest.approx(2.0, abs=1e-12)  # n/2 for K_n
    assert randic(path(4)) == pytest.approx(0.5 + math.sqrt(2), abs=1e-12)
    assert randic(star(6)) == pytest.approx(math.sqrt(5), abs=1e-12)
    with pytest.raises(ValueError):
        randic(Graph(3, [(0, 1)]))  # isolated vertex


def test_rho_extremes():
    assert rho(complete(6)) == pytest.approx(0.0, abs=1e-12)
    assert rho(cycle(5)) == pytest.approx(0.0, abs=1e-12)
    assert rho(star(6)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rho(complete(2))  # needs n >= 3


def test_rho_nonnegative_on_connected_samples():
    from graphirr import is_connected

    count = 0
    seed = 0
    while count < 40:
        g = gnp(7, 0.45, seed=seed)
        seed += 1
        if not is_connected(g):
            continue
        count += 1
        assert rho(g) >= -1e-12
