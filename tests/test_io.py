"""Golden bytes of the CSV writers, and exact round trips through the readers."""

import numpy as np

from qlgburgers.io import (
    read_trace_1d,
    read_trace_2d,
    write_density_snapshot_1d,
    write_rows_csv,
    write_snapshot_1d,
    write_snapshot_2d,
)
from qlgburgers.lattice import Grid1D, Grid2D, PopulationField1D, PopulationField2D

# Values whose shortest and 17-digit forms differ, a signed zero, the
# smallest subnormal and a repeating fraction.
F0 = np.array([-0.0, 0.1 + 0.2, 5e-324, 1 / 3])
F1 = np.array([-0.0, 1 / 3, 5e-324, 0.1 + 0.2])


def field_1d(t=3):
    return PopulationField1D(f0=F0, f1=F1, grid=Grid1D(n_x=4, length_x=1.0), t=t)


def field_2d(t=1):
    grid = Grid2D(n_x=2, n_y=2, ds=0.1)
    return PopulationField2D(f0=F0.reshape(2, 2), f1=F1.reshape(2, 2), grid=grid, t=t)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGoldenBytes:
    def test_snapshot_1d(self, tmp_path):
        write_snapshot_1d(tmp_path / "a.csv", field_1d())
        assert (tmp_path / "a.csv").read_text() == (
            "t,x,rho,u,f0,f1\n"
            "0.1875,0,-0,0,-0,-0\n"
            "0.1875,0.25,0.6333333333333333,0.03333333333333327,"
            "0.30000000000000004,0.33333333333333331\n"
            "0.1875,0.5,9.8813129168249309e-324,0,"
            "4.9406564584124654e-324,4.9406564584124654e-324\n"
            "0.1875,0.75,0.6333333333333333,-0.03333333333333327,"
            "0.33333333333333331,0.30000000000000004\n"
        )

    def test_snapshot_2d(self, tmp_path):
        write_snapshot_2d(tmp_path / "b.csv", field_2d())
        assert (tmp_path / "b.csv").read_text() == (
            "t,x,y,rho,u,f0,f1\n"
            "0.010000000000000002,0,0,-0,0,-0,-0\n"
            "0.010000000000000002,0,0.10000000000000001,0.6333333333333333,"
            "0.03333333333333327,0.30000000000000004,0.33333333333333331\n"
            "0.010000000000000002,0.10000000000000001,0,9.8813129168249309e-324,0,"
            "4.9406564584124654e-324,4.9406564584124654e-324\n"
            "0.010000000000000002,0.10000000000000001,0.10000000000000001,0.6333333333333333,"
            "-0.03333333333333327,0.33333333333333331,0.30000000000000004\n"
        )

    def test_density_snapshot_1d(self, tmp_path):
        xs = np.array([0.0, 1 / 3, 0.1 + 0.2])
        write_density_snapshot_1d(tmp_path / "c.csv", xs, np.array([-0.0, 5e-324, 1.0]), 0.1 + 0.2)
        assert (tmp_path / "c.csv").read_text() == (
            "t,x,rho\n"
            "0.30000000000000004,0,-0\n"
            "0.30000000000000004,0.33333333333333331,4.9406564584124654e-324\n"
            "0.30000000000000004,0.30000000000000004,1\n"
        )

    def test_rows_csv_mixed_cells(self, tmp_path):
        rows = [(1, 0.1 + 0.2, None), (np.int64(2), -0.0, 1 / 3), (3, 5e-324, np.float64(1.5))]
        write_rows_csv(tmp_path / "e.csv", ("n", "value", "note"), rows)
        assert (tmp_path / "e.csv").read_text() == (
            "n,value,note\n"
            "1,0.30000000000000004,\n"
            "2,-0,0.33333333333333331\n"
            "3,4.9406564584124654e-324,1.5\n"
        )

    def test_snapshot_2d_beyond_one_block(self, tmp_path):
        # 70 x 70 = 4900 rows: more than one formatting block of the writer
        grid = Grid2D(n_x=70, n_y=70, ds=0.3)
        rng = np.random.default_rng(7)
        f0, f1 = rng.random((2, 70, 70))
        write_snapshot_2d(tmp_path / "big.csv", PopulationField2D(f0=f0, f1=f1, grid=grid, t=5))
        lines = (tmp_path / "big.csv").read_text().splitlines()
        assert len(lines) == 1 + 70 * 70
        for i, j in ((0, 0), (58, 35), (58, 36), (69, 69)):
            cells = (5 * grid.dt, i * 0.3, j * 0.3, f0[i, j] + f1[i, j], f1[i, j] - f0[i, j], f0[i, j], f1[i, j])
            assert lines[1 + 70 * i + j] == ",".join(format(float(v), ".17g") for v in cells)


class TestReadersExact:
    def test_read_trace_1d(self, tmp_path):
        write_snapshot_1d(tmp_path / "run_t0.csv", field_1d(t=0))
        write_snapshot_1d(tmp_path / "run_t3.csv", field_1d(t=3))
        steps, xs, rho = read_trace_1d(tmp_path, "run")
        assert steps.tolist() == [0, 3]
        assert same_bits(xs, Grid1D(n_x=4, length_x=1.0).positions())
        assert same_bits(rho, np.stack([F0 + F1, F0 + F1]))

    def test_read_trace_2d(self, tmp_path):
        write_snapshot_2d(tmp_path / "run_t1.csv", field_2d(t=1))
        write_snapshot_2d(tmp_path / "run_t10.csv", field_2d(t=10))
        steps, rho = read_trace_2d(tmp_path, "run", 2, 2)
        assert steps.tolist() == [1, 10]
        rho2 = (F0 + F1).reshape(2, 2)
        assert same_bits(rho, np.stack([rho2, rho2]))
