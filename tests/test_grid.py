"""Grid containers, discrete operators and the discrete energy."""

import numpy as np
import pytest

from rxd import (
    DiffusionCoeffs,
    Field,
    Grid,
    ModelParams,
    PositivityError,
    State,
    apply_variable_laplacian,
    discrete_energy,
    face_coefficient,
    inner_product,
    norm_max,
)
from oracles import stencil_laplacian_1d


def test_grid_geometry():
    g = Grid(2, 4, (-1.0, -1.0), (1.0, 1.0))
    assert g.h == 0.5
    assert g.shape == (4, 4)
    assert g.num_cells == 16
    assert g.cell_volume == 0.25
    np.testing.assert_allclose(g.centers(0), [-0.75, -0.25, 0.25, 0.75])


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(4, 4, (0.0,) * 4, (1.0,) * 4)
    with pytest.raises(ValueError):
        Grid(2, 0, (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Grid(2, 4, (0.0, 0.0), (1.0, 2.0))  # unequal spacing
    with pytest.raises(ValueError):
        Grid(1, 4, (1.0,), (0.0,))  # degenerate domain
    with pytest.raises(ValueError):
        Grid(2, 4, (0.0,), (1.0, 1.0))  # wrong bound arity
    with pytest.raises(ValueError):
        Grid(2, 8, (-1.0, -1.0), (np.inf, 1.0))  # h = inf
    with pytest.raises(ValueError):
        Grid(1, 8, (np.nan,), (1.0,))


def test_mesh_axis_convention():
    # x varies along the last array axis (row-major flatten has x fastest).
    g = Grid(2, 3, (0.0, 10.0), (3.0, 13.0))
    x, y = g.mesh()
    np.testing.assert_allclose(x[0, :], [0.5, 1.5, 2.5])
    np.testing.assert_allclose(x[1, :], [0.5, 1.5, 2.5])
    np.testing.assert_allclose(y[:, 0], [10.5, 11.5, 12.5])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mesh_face_axis_is_bitwise_faces_there_and_centers_elsewhere(dim):
    n, h = 7, 0.3
    lower = (-1.3, 0.2, 5.0)[:dim]
    g = Grid(dim, n, lower, tuple(x + n * h for x in lower))
    for face_axis in (None, *range(dim)):
        coords = g.mesh(face_axis=face_axis)
        assert len(coords) == dim
        for p, coord in enumerate(coords):
            offset = 1.0 if p == face_axis else 0.5
            line = np.array([g.lower[p] + (i + offset) * g.h for i in range(n)])
            if p != face_axis:
                assert np.array_equal(line, g.centers(p))
            # physical axis p runs along array axis dim - 1 - p
            shape = [1] * dim
            shape[dim - 1 - p] = n
            expected = np.broadcast_to(line.reshape(shape), g.shape)
            assert coord.shape == g.shape
            assert np.array_equal(coord, expected)


def test_field_size_validation():
    g = Grid.box(2, 4)
    with pytest.raises(ValueError):
        Field(g, np.zeros(15))
    f = Field(g, np.arange(16.0))
    assert f.values.shape == (4, 4)


def test_model_params_detailed_balance():
    ModelParams(2.0, 3.0, 6.0)
    ModelParams(1.0, 1.0, 2.0, k_plus=2.0, k_minus=1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 2.0)
    with pytest.raises(PositivityError):
        ModelParams(-1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        ModelParams(np.inf, 1.0, np.inf)  # inf - inf is nan, which passed the balance check
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, k_plus=np.inf, k_minus=np.inf)


def test_state_requires_shared_grid():
    g1, g2 = Grid.box(1, 4), Grid.box(1, 5)
    with pytest.raises(ValueError):
        State(Field.full(g1, 1.0), Field.full(g1, 1.0), Field.full(g2, 1.0))


def test_state_copies_its_inputs():
    g = Grid.box(2, 3)
    a, b, c = Field.full(g, 1.0), Field.full(g, 2.0), Field.full(g, 3.0)
    s = State(a, b, c)
    a.values[...] = 7.0
    c.values[0, 1] = -1.0
    np.testing.assert_array_equal(s.a.values, 1.0)
    np.testing.assert_array_equal(s.c.values, 3.0)


def test_state_species_are_views_of_one_stack():
    g = Grid.box(2, 4)
    s = State.uniform(g, 1.0, 2.0, 3.0)
    assert s.u.shape == (3, *g.shape)
    s.a.values[...] = 5.0
    s.c.values[2, 1] = 9.0
    np.testing.assert_array_equal(s.u[0], 5.0)
    assert s.u[2, 2, 1] == 9.0
    assert s.min_values() == (5.0, 2.0, 3.0)
    assert [name for name, _ in s.species()] == ["a", "b", "c"]
    u = np.ones((3, *g.shape))
    wrapped = State.from_stack(g, u, time=0.5)
    assert wrapped.u is u and wrapped.time == 0.5
    with pytest.raises(ValueError):
        State.from_stack(g, np.ones((2, *g.shape)))


def test_inner_product_examples():
    g = Grid.box(1, 4)
    one = Field.full(g, 1.0)
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-15)

    g2 = Grid.box(2, 7)
    assert inner_product(Field.full(g2, 2.0), Field.full(g2, 3.0)) == pytest.approx(
        6.0, abs=1e-14
    )

    g3 = Grid.box(1, 3)
    f = Field(g3, [1.0, -2.0, 3.0])
    assert inner_product(f, Field.full(g3, 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_inner_product_rejects_mismatched_grids():
    f = Field.full(Grid.box(1, 4), 1.0)
    g = Field.full(Grid.box(1, 5), 1.0)
    with pytest.raises(ValueError):
        inner_product(f, g)


def test_norms():
    g = Grid.box(1, 3)
    f = Field(g, [1.0, -2.0, 3.0])
    assert norm_max(f) == 3.0
    zero = Field.full(g, 0.0)
    assert norm_max(zero) == 0.0


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    g = Grid.box(2, 9)
    f = Field(g, rng.normal(size=g.shape))
    h = Field(g, rng.normal(size=g.shape))
    k = Field(g, rng.normal(size=g.shape))
    assert inner_product(f, h) == pytest.approx(inner_product(h, f), rel=1e-14)
    lhs = inner_product(Field(g, 2.0 * f.values + 3.0 * h.values), k)
    rhs = 2.0 * inner_product(f, k) + 3.0 * inner_product(h, k)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_discrete_energy_examples():
    p = ModelParams(1.0, 1.0, 1.0)
    g = Grid.box(2, 6)
    assert discrete_energy(State.uniform(g, 1.0, 1.0, 1.0), p) == pytest.approx(
        -3.0, rel=1e-14
    )
    assert discrete_energy(State.uniform(g, np.e, 1.0, 1.0), p) == pytest.approx(
        -2.0, rel=1e-13
    )
    g2 = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    assert discrete_energy(State.uniform(g2, 1.0, 1.0, 1.0), p) == pytest.approx(
        -12.0, rel=1e-14
    )


def test_discrete_energy_rejects_nonpositive_cells():
    p = ModelParams(1.0, 1.0, 1.0)
    g = Grid.box(1, 4)
    vals = np.ones(4)
    vals[2] = 0.0
    s = State(Field.full(g, 1.0), Field(g, vals), Field.full(g, 1.0))
    with pytest.raises(PositivityError, match="species b.*cell 2"):
        discrete_energy(s, p)


def test_energy_minimized_at_reference_state():
    # Over uniform states the energy has its minimum at (1, 1, 1) when all
    # reference concentrations are 1.
    p = ModelParams(1.0, 1.0, 1.0)
    g = Grid.box(1, 2)
    levels = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
    best = min(
        ((a, b, c) for a in levels for b in levels for c in levels),
        key=lambda abc: discrete_energy(State.uniform(g, *abc), p),
    )
    assert best == (1.0, 1.0, 1.0)


def test_laplacian_constant_field_is_zero():
    g = Grid.box(2, 8)
    f = Field.full(g, 4.2)
    out = apply_variable_laplacian(f, 3.0)
    np.testing.assert_array_equal(out.values, 0.0)
    out_var = apply_variable_laplacian(f, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    np.testing.assert_allclose(out_var.values, 0.0, atol=1e-12)


def test_laplacian_fourier_mode_eigenvalue():
    # cos(2 pi x) is an eigenfunction of the periodic 3-point stencil with
    # eigenvalue -(2/h^2)(1 - cos(2 pi h)); cross-check against a direct
    # stencil application with explicit indexing.
    g = Grid.box(1, 8)
    f = Field.from_function(g, lambda x: np.cos(2.0 * np.pi * x))
    out = apply_variable_laplacian(f, 1.0)
    lam = (2.0 / g.h**2) * (1.0 - np.cos(2.0 * np.pi * g.h))
    assert lam == pytest.approx(37.49033200812191, rel=1e-15)
    np.testing.assert_allclose(out.values, -lam * f.values, atol=1e-11)
    brute = stencil_laplacian_1d(f.values, g.h, 1.0)
    np.testing.assert_allclose(out.values, brute, rtol=0, atol=1e-12)


def test_laplacian_matches_brute_force_variable_coefficient():
    rng = np.random.default_rng(11)
    g = Grid.box(1, 16)
    f = Field(g, rng.normal(size=g.shape))
    d = lambda x: 1.0 + 0.9 * np.sin(2.0 * np.pi * x)  # noqa: E731
    out = apply_variable_laplacian(f, d)
    d_face = d(g.lower[0] + (np.arange(g.n) + 1.0) * g.h)
    brute = stencil_laplacian_1d(f.values, g.h, d_face)
    np.testing.assert_allclose(out.values, brute, rtol=0, atol=1e-10)


def test_laplacian_zero_column_sums():
    rng = np.random.default_rng(3)
    for dim, n in ((1, 5), (2, 5), (3, 5)):
        g = Grid.box(dim, n)
        f = Field(g, rng.normal(size=g.shape))
        out = apply_variable_laplacian(f, 2.5)
        tol = 1e-13 * norm_max(f) * 2.5 / g.h**2
        assert abs(np.sum(out.values)) <= tol * g.num_cells


def test_laplacian_self_adjoint_and_negative_semidefinite():
    rng = np.random.default_rng(5)
    g = Grid(2, 12, (-1.0, -1.0), (1.0, 1.0))
    d = lambda x, y: 0.3 + 0.2 * np.cos(np.pi * x) * np.sin(np.pi * y) ** 2  # noqa: E731
    for _ in range(5):
        f = Field(g, rng.normal(size=g.shape))
        h = Field(g, rng.normal(size=g.shape))
        lf = apply_variable_laplacian(f, d)
        lh = apply_variable_laplacian(h, d)
        lhs, rhs = inner_product(lf, h), inner_product(f, lh)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
        quad = inner_product(lf, f)
        assert quad <= 1e-13 * (1.0 + abs(quad))


def test_face_coefficient_rejects_nonpositive():
    g = Grid.box(1, 8)
    with pytest.raises(PositivityError):
        face_coefficient(g, 0.0, 0)
    with pytest.raises(PositivityError):
        face_coefficient(g, lambda x: np.cos(2 * np.pi * x), 0)
    with pytest.raises(PositivityError):
        DiffusionCoeffs(-0.1, 1.0, 1.0)
