"""Order computation, cross-resolution comparison, and small study runs."""

import io

import numpy as np
import pytest

from rxd import (
    Field,
    Grid,
    RefinementReport,
    cauchy_a_star,
    cauchy_orders,
    compare_fields,
    convergence_orders,
    benchmark_scene,
    spatial_cauchy_order,
    temporal_order,
)
from rxd.study import STUDY_CSV_HEADER


def test_convergence_orders_synthetic_first_order():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errors = [3.7 * dt for dt in dts]
    for order in convergence_orders(dts, errors):
        assert order == pytest.approx(1.0, abs=1e-12)


def test_convergence_orders_tabulated_rows():
    # Tabulated error pairs from the full-resolution benchmark reproduce
    # the expected orders.
    assert convergence_orders([1 / 25, 1 / 50], [9.5498e-3, 4.8519e-3])[0] == pytest.approx(
        0.9769, abs=5e-5
    )
    assert convergence_orders([1 / 200, 1 / 400], [1.2629e-3, 5.3817e-4])[0] == pytest.approx(
        1.2306, abs=5e-5
    )


def test_convergence_orders_rejects_degenerate_input():
    with pytest.raises(ValueError):
        convergence_orders([0.1, 0.1], [1.0, 0.5])
    with pytest.raises(ValueError):
        convergence_orders([0.1], [1.0])


def test_cauchy_a_star_value():
    assert cauchy_a_star(1 / 20, 1 / 30, 1 / 40) == pytest.approx(80.0 / 63.0, rel=1e-14)


def test_cauchy_orders_exact_two_term_sequence():
    # d_j = K h_{j-1}^2 (1 - h_j^2/h_{j-1}^2) is what a pure h^2 error
    # produces; the A* factor is built to cancel it to exactly order 2.
    hs = [1 / 10, 1 / 15, 1 / 20, 1 / 25, 1 / 30]
    diffs = [4.2 * (h1**2 - h2**2) for h1, h2 in zip(hs, hs[1:])]
    for order in cauchy_orders(hs, diffs):
        assert order == pytest.approx(2.0, abs=1e-12)


def test_cauchy_orders_tabulated_rows():
    hs = [1 / 20, 1 / 30, 1 / 40]
    assert cauchy_orders(hs, [2.0358e-3, 7.1819e-4])[0] == pytest.approx(1.9805, abs=5e-4)
    assert cauchy_orders(hs, [7.6602e-4, 2.6167e-4])[0] == pytest.approx(2.0599, abs=5e-4)


def test_cauchy_orders_rejects_short_input():
    with pytest.raises(ValueError):
        cauchy_orders([0.1, 0.05], [1e-3])
    with pytest.raises(ValueError):
        cauchy_orders([0.1, 0.05, 0.025], [1e-3])


def test_compare_fields_identical_grids():
    rng = np.random.default_rng(41)
    g = Grid(2, 10, (-1.0, -1.0), (1.0, 1.0))
    f = Field(g, rng.normal(size=g.shape))
    h = Field(g, f.values + 1e-3)
    assert compare_fields(f, h) == pytest.approx(1e-3, rel=1e-12)


def test_compare_fields_constants_exact():
    g_coarse = Grid.box(2, 10)
    g_fine = Grid.box(2, 15)
    assert compare_fields(Field.full(g_coarse, 5.0), Field.full(g_fine, 5.0)) == 0.0


def test_compare_fields_fourth_order_on_smooth_periodic_data():
    wave = lambda x, y: np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)  # noqa: E731
    g_coarse = Grid.box(2, 10)
    coarse = Field.from_function(g_coarse, wave)
    errs = []
    for n_fine in (40, 80):
        fine = Field.from_function(Grid.box(2, n_fine), wave)
        errs.append(compare_fields(coarse, fine))
    rate = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert rate == pytest.approx(4.0, abs=0.3)


def test_compare_fields_rejects_mismatched_domains():
    f = Field.full(Grid.box(2, 8, 0.0, 1.0), 1.0)
    g = Field.full(Grid.box(2, 12, -1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        compare_fields(f, g)


def test_refinement_report_validation_and_csv():
    report = RefinementReport(
        kind="temporal",
        params=[0.1, 0.05],
        errors=[(1e-2, 2e-2, 3e-2), (5e-3, 1e-2, 1.5e-2)],
        orders=[(1.0, 1.0, 1.0)],
    )
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == STUDY_CSV_HEADER
    assert len(lines) == 3
    # first data row has empty order cells
    cells = lines[1].split(",")
    assert cells[2] == "" and cells[4] == "" and cells[6] == ""
    assert float(lines[2].split(",")[2]) == 1.0
    with pytest.raises(ValueError):
        RefinementReport("temporal", [0.05, 0.1], report.errors, report.orders)
    with pytest.raises(ValueError):
        RefinementReport("temporal", [0.1, 0.05], [(1e-2, -1e-2, 1e-2)] * 2, report.orders)


def test_temporal_order_validation():
    scene = benchmark_scene()
    grid = scene.grid(10)
    with pytest.raises(ValueError):
        temporal_order([0.1], 0.01, grid, 0.2, scene)
    with pytest.raises(ValueError):
        temporal_order([0.1, 0.1], 0.01, grid, 0.2, scene)
    with pytest.raises(ValueError):
        temporal_order([0.1, 0.05], 0.05, grid, 0.2, scene)  # ref not smaller
    with pytest.raises(ValueError):
        temporal_order([0.1, 0.03], 0.01, grid, 0.2, scene)  # 0.03 not dividing


def test_spatial_order_validation():
    scene = benchmark_scene()
    with pytest.raises(ValueError):
        spatial_cauchy_order([0.2, 0.1], 0.2, scene)
    with pytest.raises(ValueError):
        spatial_cauchy_order([0.2, 0.15, 0.1], 0.2, scene)  # 0.15 does not tile (-1,1)


def test_small_temporal_study_end_to_end():
    scene = benchmark_scene()
    grid = scene.grid(20)
    report = temporal_order([0.05, 0.025], 0.00625, grid, 0.2, scene)
    assert report.kind == "temporal"
    assert report.params == [0.05, 0.025]
    assert len(report.errors) == 2 and len(report.orders) == 1
    assert all(e > 0 for row in report.errors for e in row)
    # first-order-in-time scheme: coarse observed orders are near 1
    assert all(0.5 <= o <= 1.6 for o in report.all_orders())


def test_small_spatial_study_end_to_end():
    scene = benchmark_scene()
    # N = 10, 20, 30: dt = h^2 divides T = 0.2 for all three
    report = spatial_cauchy_order([0.2, 0.1, 2.0 / 30.0], 0.2, scene)
    assert report.kind == "spatial"
    assert len(report.errors) == 2 and len(report.orders) == 1
