"""Golden bytes of the CSV writers, and exact round trips through the readers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlgburgers.io import (
    _BLOCK_ROWS,
    _SLOT,
    _VECTOR_MIN,
    _format17g,
    read_trace_1d,
    write_density_snapshot_1d,
    write_rows_csv,
    write_snapshot_1d,
    write_snapshot_2d,
)
from qlgburgers.lattice import Grid1D, Grid2D, PopulationField

# Values whose shortest and 17-digit forms differ, a signed zero, the
# smallest subnormal and a repeating fraction.
F0 = np.array([-0.0, 0.1 + 0.2, 5e-324, 1 / 3])
F1 = np.array([-0.0, 1 / 3, 5e-324, 0.1 + 0.2])


def field_1d(t=3):
    return PopulationField(f0=F0, f1=F1, grid=Grid1D(n_x=4, length_x=1.0), t=t)


def field_2d(t=1):
    grid = Grid2D(n_x=2, n_y=2, ds=0.1)
    return PopulationField(f0=F0.reshape(2, 2), f1=F1.reshape(2, 2), grid=grid, t=t)


def texts(slots):
    """The text each slot of ``_format17g`` reads as once its NULs are dropped."""
    return [bytes(s[s != 0]).decode() for s in slots.reshape(-1, _SLOT)]


def bits_of(x):
    return int(np.float64(x).view(np.uint64))


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

    def test_density_snapshot_1d_beyond_one_block(self, tmp_path):
        # 3000 rows: three blocks of the writer, the last one partial, with
        # values outside the vectorised band in each block
        rng = np.random.default_rng(11)
        xs = np.arange(3000) * (2.0 / 3000)
        rho = rng.uniform(0.5, 1.5, 3000)
        rho[[0, 1023, 1024, 2047, 2048, 2999]] = [-0.0, 5e-324, 1e20, np.nan, -np.inf, 1e-5]
        t = 0.1 + 0.2
        write_density_snapshot_1d(tmp_path / "d.csv", xs, rho, t)
        rows = [",".join(format(float(v), ".17g") for v in (t, x, r)) for x, r in zip(xs, rho)]
        assert (tmp_path / "d.csv").read_text() == "t,x,rho\n" + "".join(r + "\n" for r in rows)

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
        write_snapshot_2d(tmp_path / "big.csv", PopulationField(f0=f0, f1=f1, grid=grid, t=5))
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
        # a 2D snapshot reads back as its sites in file order, y varying fastest
        write_snapshot_2d(tmp_path / "run_t1.csv", field_2d(t=1))
        write_snapshot_2d(tmp_path / "run_t10.csv", field_2d(t=10))
        steps, xs, rho = read_trace_1d(tmp_path, "run")
        assert steps.tolist() == [1, 10]
        assert same_bits(xs, np.array([0.0, 0.0, 0.1, 0.1]))
        assert same_bits(rho, np.stack([F0 + F1, F0 + F1]))

    def test_step_suffix_is_ascii_digits_only(self, tmp_path):
        write_snapshot_1d(tmp_path / "run_t2.csv", field_1d(t=2))
        text = (tmp_path / "run_t2.csv").read_text()
        for name in ("run_t+3.csv", "run_t 7.csv", "run_t1_0.csv", "run_t\u0663.csv", "run_t.csv"):
            (tmp_path / name).write_text(text)
        steps, _, _ = read_trace_1d(tmp_path, "run")
        assert steps.tolist() == [2]


# Raw float64 bit patterns: any at all, and patterns whose magnitude lies in
# or next to the kernel's band [1e-4, 1e15), where positive patterns order
# like their values.
BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.booleans(), st.integers(bits_of(1e-4) - 64, bits_of(1e15) + 64)).map(
        lambda sign_bits: sign_bits[1] | sign_bits[0] << 63
    ),
)


def edge_values():
    """Values where the 17-digit text is easiest to get wrong."""
    values = [0.09999999999999999, 0.0, -0.0, 5e-324, 1e-4, 1e15, np.nan, np.inf, -np.inf]
    values += [np.nextafter(1e-4, 0.0), np.nextafter(1e15, 0.0), np.nextafter(1e15, np.inf)]
    # 40 ulps below and above every power of ten from 1e-5 to 1e16
    for k in range(-5, 17):
        down = up = 10.0**k
        for _ in range(40):
            down = np.nextafter(down, 0.0)
            up = np.nextafter(up, np.inf)
            values += [down, up]
        values.append(10.0**k)
    # exact half-way ties: x = m * 2**(e - 17) with m odd and x in [10**e, 10**(e + 1))
    # is m * 5**(17 - e) * 10**(e - 17), an 18-digit odd multiple of 5 times a power
    # of ten, so rounding it to 17 digits is a tie
    rng = np.random.default_rng(12)
    for e in range(-4, 15):
        low = int(np.ceil(10.0**e * 2.0 ** (17 - e)))
        high = min(int(10.0 ** (e + 1) * 2.0 ** (17 - e)), 2**53)
        values += [float(m | 1) * 2.0 ** (e - 17) for m in rng.integers(low, high, 20).tolist()]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestFormat17g:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(BIT_PATTERNS, min_size=1, max_size=400))
    def test_equals_format(self, patterns):
        v = np.array(patterns, dtype=np.uint64).view(np.float64)
        v = np.resize(v, max(v.size, _VECTOR_MIN))  # the kernel, not the per-value fallback
        assert texts(_format17g(v)) == [format(x, ".17g") for x in v.tolist()]

    def test_edge_values(self):
        v = edge_values()
        assert v.size >= _VECTOR_MIN
        assert texts(_format17g(v)) == [format(x, ".17g") for x in v.tolist()]

    @pytest.mark.parametrize("size", [1, _VECTOR_MIN - 1, _VECTOR_MIN])
    def test_either_side_of_the_crossover(self, size):
        v = np.resize(edge_values(), (size, 1))
        slots = _format17g(v)
        assert slots.shape == (size, 1, _SLOT)
        assert texts(slots) == [format(x, ".17g") for x in v.ravel().tolist()]

    def test_scalar(self):
        assert texts(_format17g(0.1 + 0.2)) == ["0.30000000000000004"]


class TestGoldenBlocks:
    def test_snapshot_2d_fallback_values_in_every_block(self, tmp_path):
        # two full blocks and a last block of 2 rows, below the kernel's crossover
        n_x, n_y = 41, 50
        assert n_x * n_y == 2 * _BLOCK_ROWS + 2 and 2 * 4 < _VECTOR_MIN
        grid = Grid2D(n_x=n_x, n_y=n_y, ds=0.3)
        rng = np.random.default_rng(5)
        f0, f1 = rng.random((2, n_x * n_y))
        for row in (0, _BLOCK_ROWS + 500, n_x * n_y - 5):
            f0[row : row + 5] = [0.0, -0.0, 1e-5, 5e-324, np.nan]
            f1[row : row + 5] = [1e-5, 0.0, -0.0, 5e-324, 1e-3]
        fld = PopulationField(f0=f0.reshape(n_x, n_y), f1=f1.reshape(n_x, n_y), grid=grid, t=7)
        write_snapshot_2d(tmp_path / "g.csv", fld)
        # one format() per cell is the reference
        expected = ["t,x,y,rho,u,f0,f1"]
        for i in range(n_x * n_y):
            x, y = divmod(i, n_y)
            cells = (7 * grid.dt, x * 0.3, y * 0.3, f0[i] + f1[i], f1[i] - f0[i], f0[i], f1[i])
            expected.append(",".join(format(float(c), ".17g") for c in cells))
        assert (tmp_path / "g.csv").read_text() == "\n".join(expected) + "\n"


class TestReaderEdges:
    def test_one_row_file(self, tmp_path):
        write_density_snapshot_1d(tmp_path / "r_t2.csv", np.array([0.5]), np.array([0.1 + 0.2]), 1.0)
        steps, xs, rho = read_trace_1d(tmp_path, "r")
        assert steps.tolist() == [2] and xs.tolist() == [0.5] and rho.tolist() == [[0.1 + 0.2]]

    def test_missing_snapshots(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="r_t"):
            read_trace_1d(tmp_path, "r")

    def test_header_without_rho(self, tmp_path):
        write_rows_csv(tmp_path / "r_t0.csv", ("t", "x", "density"), [(0.0, 0.5, 1.0)])
        with pytest.raises(ValueError, match="rho"):
            read_trace_1d(tmp_path, "r")
