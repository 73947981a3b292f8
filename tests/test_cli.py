"""CLI tests: validation, artifacts, manifests, determinism, round trips."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qlgburgers.cli import SCHEMAS, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def small_1d_config(**over):
    cfg = {
        "model": "d1q2",
        "run_id": "tiny",
        "grid": {"n_x": 16, "length_x": 2.0},
        "collision": {"theta": 1.0471975511965976},
        "initial": {"rho_b": 1.0, "rho_a": 0.2},
        "steps": 8,
        "snapshot_stride": 4,
    }
    cfg.update(over)
    return cfg


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = small_1d_config()
        cfg["grdi"] = {}
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        assert "grdi" in capsys.readouterr().err

    def test_nested_unknown_key_named(self, tmp_path, capsys):
        cfg = small_1d_config()
        cfg["grid"]["n_z"] = 4
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        assert "grid.n_z" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = small_1d_config()
        del cfg["steps"]
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        assert "steps" in capsys.readouterr().err

    def test_theta_zero_exits_one_citing_domain(self, tmp_path, capsys):
        cfg = small_1d_config()
        cfg["collision"]["theta"] = 0.0
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        err = capsys.readouterr().err
        assert "theta" in err and "pi/2" in err

    def test_model_mismatch(self, tmp_path, capsys):
        cfg = small_1d_config(model="d2q2")
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        assert "model" in capsys.readouterr().err

    def test_bad_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("steps: [unclosed\n")
        rc = main(["simulate1d", "--config", str(path)])
        assert rc == 1
        assert "YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    @pytest.mark.parametrize(
        "text, overrides",
        [(b"- 1\n", ["steps=3"]), (b"3\n", ["run_id=x"]), (b"\xff\xfe\x00", [])],
        ids=["list_root", "scalar_root", "not_utf8"],
    )
    def test_unusable_config_file_exits_one(self, tmp_path, capsys, command, text, overrides):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        args = [command, "--config", str(path), "--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    @pytest.mark.parametrize("text", [b"0\n", b"false\n", b"''\n", b"[]\n"])
    def test_falsy_root_is_not_a_mapping(self, tmp_path, capsys, command, text):
        # only an empty file is an empty mapping
        path = tmp_path / "cfg.yaml"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: config section '<root>' must be a mapping\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_path_that_cannot_be_a_directory(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        cfg = write_config(tmp_path, small_1d_config())
        assert main(["simulate1d", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"'{out}'" in err
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.yaml"]

    @pytest.mark.parametrize(
        "command, cfg, blocked, kept",
        [
            (
                "steepness-sweep",
                {"run_id": "st", "steepness": {"theta_stop": 1.3, "count": 2, "T_values": [8]}},
                "st_steepness.csv",
                [],
            ),
            (
                "simulate1d",
                small_1d_config(),
                "manifest.json",
                ["tiny_t0.csv", "tiny_t4.csv", "tiny_t8.csv"],
            ),
        ],
    )
    def test_write_failure_exits_one(self, tmp_path, capsys, command, cfg, blocked, kept):
        # a directory where an artifact or the manifest goes; the CSVs written before it stay
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = write_config(tmp_path, {**cfg, "model": SCHEMAS[command]["model"][1]})
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: [Errno 21] Is a directory: '{out / blocked}'\n"
        assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *kept])

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("simulate1d", "grid.n_x=2", "'grid.n_x' must be an integer >= 3, got 2"),
            ("viscosity-sweep", "sweep.n_x=2", "'sweep.n_x' must be an integer >= 3, got 2"),
            (
                "steepness-sweep",
                "steepness.n_x_values=[64,2]",
                "'steepness.n_x_values' must be a non-empty list of integers >= 3, got [64, 2]",
            ),
        ],
    )
    def test_lattice_needs_three_sites(self, tmp_path, capsys, command, override, message):
        # on two sites the shifts -1 and +1 coincide, so both populations stream alike
        cfg = {
            "simulate1d": small_1d_config(),
            "viscosity-sweep": {"run_id": "vs", "sweep": {"theta_stop": 1.3, "count": 2, "T": 8}},
            "steepness-sweep": {"run_id": "st", "steepness": {"theta_stop": 1.3, "count": 2}},
        }[command]
        path = write_config(tmp_path, {**cfg, "model": SCHEMAS[command]["model"][1]})
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), "--override", override]) == 1
        assert capsys.readouterr().err == f"config error: config key {message}\n"
        assert not out.exists()

    def test_override_without_equals_sign(self, tmp_path, capsys):
        path = write_config(tmp_path, small_1d_config())
        assert main(["simulate1d", "--config", str(path), "--override", "steps"]) == 1
        assert capsys.readouterr().err == "config error: override 'steps' is not of the form key=value\n"

    def test_velocity_set_needs_a_name_or_shifts(self, tmp_path, capsys):
        cfg = {**small_1d_config(model="d2q2"), "grid": {"n_x": 8, "n_y": 8}, "velocity_set": {}}
        out = tmp_path / "out"
        assert main(["simulate2d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: config key 'velocity_set' needs a name or explicit shifts\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_empty_config_file_names_run_id(self, tmp_path, capsys, command):
        # an empty file is an empty mapping, and every command requires a run_id
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: missing required config key 'run_id'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, override, key",
        [
            ("simulate1d", "1d", "snapshot_stride=0", "snapshot_stride"),
            ("simulate1d", "1d", "snapshot_stride=-2", "snapshot_stride"),
            ("simulate1d", "1d", "steps=-5", "steps"),
            ("compare-2d", "2d", "fdm.substeps=0", "fdm.substeps"),
            ("analytic", "fig4", "analytic.l_trunc=3", "analytic.l_trunc"),
            ("simulate2d", "2d", "velocity_set.shifts=[[0,0],[0,0]]", "velocity_set"),
            ("simulate2d", "2d", "velocity_set.shifts=[[1,-1],[1,-1]]", "velocity_set"),
            ("steepness-sweep", "steep", "steepness.T_values=[20.5]", "steepness.T_values"),
            ("steepness-sweep", "steep", "steepness.n_x_values=[null]", "steepness.n_x_values"),
            ("simulate1d", "fig4", "initial.rho_a=.nan", "initial.rho_a"),
            ("simulate2d", "2d", "initial.rho_b=.nan", "initial.rho_b"),
            ("simulate1d", "1d", "collision.theta=.inf", "collision.theta"),
            ("viscosity-sweep", "visc", "sweep.rho_a=.nan", "sweep.rho_a"),
            ("viscosity-sweep", "visc", "sweep.count=-1", "sweep.count"),
            ("viscosity-sweep", "visc", "sweep.count=0", "sweep.count"),
            ("viscosity-sweep", "visc", "sweep.T=-3", "sweep.T"),
            ("viscosity-sweep", "visc", "sweep.T=0", "sweep.T"),
            ("steepness-sweep", "steep", "steepness.count=-2", "steepness.count"),
            ("simulate2d", "2d", "velocity_set.shifts=[[8,0],[0,0]]", "velocity_set"),
            ("simulate2d", "2d", "velocity_set.shifts=[[1,0],[9,0]]", "velocity_set"),
            ("simulate1d", "1d", "grid.n_x=1", "grid"),
            ("simulate1d", "1d", "grid.length_x=0", "grid"),
            ("simulate2d", "2d", "grid.ds=-1", "grid"),
            ("viscosity-sweep", "visc", "sweep.n_x=1", "sweep.n_x"),
            ("steepness-sweep", "steep", "steepness.length_x=-1", "steepness"),
            ("simulate1d", "1d", "grid.n_x=2", "grid.n_x"),
            ("simulate1d", "fig4", "grid.n_x=2", "grid.n_x"),
            ("viscosity-sweep", "visc", "sweep.n_x=2", "sweep.n_x"),
            ("steepness-sweep", "steep", "steepness.n_x_values=[8,2]", "steepness.n_x_values"),
            ("steepness-sweep", "steep", "steepness.n_x_values=[2]", "steepness.n_x_values"),
            ("simulate1d", "1d", "steps=[unclosed", "steps"),
            ("simulate2d", "2d", "velocity_set.shifts=[1,2]", "velocity_set"),
            ("simulate2d", "2d_shifts", "velocity_set.basis=[1,2]", "velocity_set"),
            ("simulate2d", "2d", "velocity_set.shifts=[[.inf,0],[0,1]]", "velocity_set"),
            ("fdm1d", "fig4", "fdm.c_s=1.0e+300", "fdm"),
            ("fdm1d", "fig4", "fdm.nu=true", "fdm.nu"),
            ("simulate2d", "2d_shifts", "velocity_set.basis=[[.inf,0],[0,1]]", "velocity_set"),
            ("simulate2d", "2d_shifts", "velocity_set.basis=[[.nan,0],[0,1]]", "velocity_set"),
            ("viscosity-sweep", "visc", "sweep.rho_a=5", "sweep"),
            ("simulate1d", "1d", "initial.rho_a=1.5", "initial"),
            ("steepness-sweep", "steep", "steepness.rho_a=5", "steepness"),
            ("steepness-sweep", "steep", "steepness.theta_stop=2", "steepness.theta_stop"),
            ("analytic", "fig4", "analytic.l_trunc=0", "analytic.l_trunc"),
            ("compare-analytic", "cmp", "analytic.l_trunc=0", "analytic.l_trunc"),
            ("analytic", "fig4", "collision.theta=1.5707963267948966", "collision.theta"),
            ("simulate2d", "2d", "grid.ds=1.0e-200", "grid"),
            ("fdm1d", "fig4", "fdm.c_s=abc", "fdm.c_s"),
            ("fdm1d", "fig4", "fdm.c_s=.nan", "fdm.c_s"),
        ],
    )
    def test_bad_value_exits_one_naming_key(self, tmp_path, capsys, command, cfg, override, key):
        # each of these once ended in a traceback or exited 0 with a meaningless run
        configs = {
            "1d": small_1d_config(),
            "fig4": small_1d_config(
                grid={"n_x": 64, "length_x": 2.0}, initial={"rho_b": 1.0, "rho_a": 0.4}
            ),
            "2d": {
                **small_1d_config(steps=4, snapshot_stride=2),
                "grid": {"n_x": 8, "n_y": 8, "ds": 1.0},
                "initial": {"rho_b": 1.0, "rho_a": 0.05},
                "velocity_set": {"name": "orthogonal"},
            },
            "2d_shifts": {
                **small_1d_config(steps=4, snapshot_stride=2),
                "grid": {"n_x": 8, "n_y": 8, "ds": 1.0},
                "initial": {"rho_b": 1.0, "rho_a": 0.05},
                "velocity_set": {"name": "", "shifts": [[1, 0], [0, 1]]},
            },
            "cmp": {
                **{k: small_1d_config()[k] for k in ("run_id", "grid", "collision", "initial")},
                "compare": {"input": str(tmp_path), "input_run_id": "none"},
            },
            "steep": {
                "run_id": "st",
                "steepness": {"theta_stop": 1.3, "count": 2, "T_values": [8], "n_x_values": [8]},
            },
            "visc": {"run_id": "vs", "sweep": {"theta_stop": 1.3, "count": 2, "T": 8, "n_x": 8}},
        }
        data = {**configs[cfg], "model": SCHEMAS[command]["model"][1]}
        if override.startswith("velocity_set"):
            del data["velocity_set"]["name"]
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        rc = main([command, "--config", str(path), "--out", str(out), "--override", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, section",
        [
            ("viscosity-sweep", {"sweep": {"theta_stop": 1.3, "count": 2, "T": 8, "n_x": 8}}),
            ("steepness-sweep", {"steepness": {"theta_stop": 1.3, "count": 2, "T_values": [8]}}),
        ],
    )
    def test_sweep_phase_overflow_names_collision(self, tmp_path, capsys, command, section):
        # zeta - xi overflows to inf although each is finite: every angle of the sweep would fail
        cfg = {"model": command, "run_id": "ph", **section}
        cfg["collision"] = {"zeta": 1.0e308, "xi": -1.0e308}
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'collision' invalid")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["fdm1d", "analytic"])
    def test_two_sites_accepted_without_a_lattice(self, tmp_path, command):
        # on two sites the lattice's shifts -1 and +1 coincide, but these commands stream nothing
        out = tmp_path / "out"
        args = ["--out", str(out), "--override", f"model={command}", "--override", "grid.n_x=2"]
        args += ["--override", "steps=4", "--override", "snapshot_stride=2"]
        assert main([command, "--config", str(CONFIGS / "fig4.yaml"), *args]) == 0
        assert len(list(out.glob("*.csv"))) == 3

    def test_bad_enum_choice(self, tmp_path, capsys):
        cfg = small_1d_config(collision_path="magic")
        rc = main(["simulate1d", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 1
        assert "collision_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "via, spelling", [("file", "5e-3"), ("override", "5e-3"), ("file", "500E-5"), ("override", ".005e0")]
    )
    def test_float_key_takes_exponent_form(self, tmp_path, via, spelling):
        # YAML 1.1 reads 5e-3 (an exponent without a point) or .005e0 (one without
        # a sign) as a string; a float key reads 0.005 from a file and from --override alike
        sweep = {"theta_stop": 1.3, "count": 2, "T": 8, "n_x": 8, "rho_a": 0.005}
        cfg = {"model": "viscosity-sweep", "run_id": "vs", "sweep": sweep}
        path = write_config(tmp_path, cfg)
        assert main(["viscosity-sweep", "--config", str(path), "--out", str(tmp_path / "dec")]) == 0
        if via == "file":
            text = path.read_text()
            assert "rho_a: 0.005" in text
            path.write_text(text.replace("rho_a: 0.005", f"rho_a: {spelling}"))
            extra = []
        else:
            path = write_config(tmp_path, {**cfg, "sweep": {**sweep, "rho_a": 0.3}})
            extra = ["--override", f"sweep.rho_a={spelling}"]
        assert main(["viscosity-sweep", "--config", str(path), "--out", str(tmp_path / "exp"), *extra]) == 0
        csv = "vs_sweep.csv"
        assert (tmp_path / "exp" / csv).read_bytes() == (tmp_path / "dec" / csv).read_bytes()
        assert yaml.safe_load("5e-3") == "5e-3"  # PyYAML's own loader is left as it was

    @pytest.mark.parametrize(
        "text, override, message",
        [
            ('rho_a: "5e-3"', [], "'sweep.rho_a' must be float, got str"),
            ("rho_a: 0.005", ["--override", "sweep.rho_a='5e-3'"], "'sweep.rho_a' must be float, got str"),
            ("rho_a: 0.005", ["--override", "sweep.n_x=1e3"], "'sweep.n_x' must be an integer, got 1000.0"),
        ],
    )
    def test_exponent_form_stays_typed(self, tmp_path, capsys, text, override, message):
        # a quoted number is a string, and an exponent form is a float, which an int key rejects
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: viscosity-sweep\nrun_id: vs\nsweep:\n"
            f"  theta_stop: 1.3\n  count: 2\n  T: 8\n  n_x: 8\n  {text}\n"
        )
        out = tmp_path / "out"
        assert main(["viscosity-sweep", "--config", str(path), "--out", str(out), *override]) == 1
        assert capsys.readouterr().err == f"config error: config key {message}\n"
        assert not list(out.glob("*.csv"))


# The fuzzer's tiny valid starting point per command: 8 sites (8x8 in 2D), 4 steps,
# sweeps of 2 angles and 8 steps.  The 2D sets are explicit shifts, so that
# overrides of shifts and basis reach the velocity set itself.
_SETUP_1D_TINY = {
    "run_id": "fz",
    "grid": {"n_x": 8, "length_x": 2.0},
    "collision": {"theta": 1.0},
    "initial": {"rho_b": 1.0, "rho_a": 0.1},
}
_RUN_TINY = {"steps": 4, "snapshot_stride": 2}
_SETUP_2D_TINY = {
    **_SETUP_1D_TINY,
    "grid": {"n_x": 8, "n_y": 8},
    "initial": {"rho_b": 1.0, "rho_a": 0.05},
    "velocity_set": {"shifts": [[1, 0], [0, -1]]},
}
FUZZ_BASES = {
    "simulate1d": {**_SETUP_1D_TINY, **_RUN_TINY},
    "simulate2d": {**_SETUP_2D_TINY, **_RUN_TINY},
    "fdm1d": {**_SETUP_1D_TINY, **_RUN_TINY},
    "fdm2d": {**_SETUP_2D_TINY, **_RUN_TINY},
    "analytic": {**_SETUP_1D_TINY, **_RUN_TINY},
    "viscosity-sweep": {
        "run_id": "fz",
        "sweep": {"theta_stop": 1.3, "count": 2, "T": 8, "n_x": 8},
    },
    "steepness-sweep": {
        "run_id": "fz",
        "steepness": {"theta_stop": 1.3, "count": 2, "T_values": [8], "n_x_values": [8]},
    },
    "compare-analytic": {**_SETUP_1D_TINY},  # compare.input is added by the fixture
    "compare-2d": {**_SETUP_2D_TINY, **_RUN_TINY},
}
# Drawn values, as the YAML text of an override.  Every integer is small, so a
# valid draw never asks for a large grid, step count or substep count; float
# keys take the integers too (0 and -1 among them).
_INTS = ["-1", "0", "1", "2", "3"]
_FLOATS = [".nan", ".inf", "-.inf", "1.0e+300", "-1.0e+300"]
_WRONG_TYPES = ["abc", "true", "[]", "{}"]
_PAIRS = [
    "[[0,0],[0,0]]",
    "[[1,0],[1,0]]",
    "[[8,0],[0,0]]",
    "[[1,0],[9,0]]",
    "[1,2]",
    "[[1,0]]",
    "[[1,2,3],[0,1]]",
    "[[.inf,0],[0,1]]",
    "[[.nan,0],[0,1]]",
    "[[1.5,0],[0,1]]",
    "[[1.0e+300,0],[0,1]]",
    "[['1','0'],[0,1]]",
]
# Output paths: a drawn value would write outside the example's directory.
_NOT_FUZZED = {"run_id", "compare.input", "compare.input_run_id"}


def _fuzz_leaves(schema, path=""):
    """(dotted key, drawn values) of every leaf of ``schema`` the fuzzer overrides."""
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            yield from _fuzz_leaves(spec, where)
        elif where not in _NOT_FUZZED:
            typ, _, *rule = spec
            if rule and isinstance(rule[0], tuple):
                values = list(rule[0])
            elif where in ("velocity_set.shifts", "velocity_set.basis"):
                values = _PAIRS
            elif typ is list:
                values = [f"[{v}]" for v in _INTS] + ["[1.5]", "[abc]", "[3, 2]"]
            elif typ is float:
                values = _INTS + _FLOATS
            elif where == "velocity_set.name":
                values = ["''", "orthogonal", "triangular"]
            else:  # integers, and fdm.substeps
                values = _INTS + ["auto", "1.5"]
            yield where, values + _WRONG_TYPES


def _check_csv(path):
    lines = path.read_text().splitlines()
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == width, (path.name, line)
        [float(cell) for cell in cells if cell]  # an empty cell is a failed estimate


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    """The snapshots that compare-analytic reads: simulate1d on the tiny 1D start."""
    directory = tmp_path_factory.mktemp("fuzz_input")
    cfg = write_config(directory, {**FUZZ_BASES["simulate1d"], "model": "d1q2"})
    assert main(["simulate1d", "--config", str(cfg), "--out", str(directory)]) == 0
    return directory


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_any_override_exits_cleanly(self, fuzz_input, command, data):
        # every override exits 0, 1 or 2 without a traceback; 1 is a config
        # error that writes no CSV, 0 and 2 write only well-formed CSVs
        leaves = dict(_fuzz_leaves(SCHEMAS[command]))
        keys = data.draw(st.lists(st.sampled_from(sorted(leaves)), min_size=1, max_size=3, unique=True))
        overrides = [f"{key}={data.draw(st.sampled_from(leaves[key]), label=key)}" for key in keys]
        cfg = {**FUZZ_BASES[command], "model": SCHEMAS[command]["model"][1]}
        if command == "compare-analytic":
            cfg["compare"] = {"input": str(fuzz_input), "input_run_id": "fz"}
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            args = [command, "--config", str(write_config(Path(tmp), cfg)), "--out", str(out)]
            for item in overrides:
                args += ["--override", item]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(args)  # a traceback would propagate from here
            csvs = sorted(out.glob("*.csv"))
            assert rc in (0, 1, 2), (overrides, rc)
            if rc == 1:
                # on the command line a warning would be printed before the error
                assert err.getvalue().startswith("config error:"), (overrides, err.getvalue())
                assert not caught, (overrides, [str(w.message) for w in caught])
                assert not csvs, overrides
            for path in csvs:
                _check_csv(path)


class TestSimulate1D:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        out = tmp_path / "out"
        rc = main(["simulate1d", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for step in (0, 4, 8):
            snap = out / f"tiny_t{step}.csv"
            assert snap.exists()
            header = snap.read_text().splitlines()[0]
            assert header == "t,x,rho,u,f0,f1"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 8
        assert manifest["version"]
        assert "total" in manifest["timings_seconds"]
        assert "c_s" in manifest["results"]["predicted_coefficients"]

    def test_full_precision_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        out = tmp_path / "out"
        main(["simulate1d", "--config", str(cfg), "--out", str(out)])
        data = np.genfromtxt(out / "tiny_t8.csv", delimiter=",", names=True)
        np.testing.assert_allclose(data["rho"], data["f0"] + data["f1"], atol=0)

    def test_override_applied_and_resolved(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        out = tmp_path / "out"
        rc = main(
            [
                "simulate1d",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--override",
                "steps=4",
                "--override",
                "initial.rho_a=0.1",
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 4
        assert manifest["config"]["initial"]["rho_a"] == 0.1
        assert not (out / "tiny_t8.csv").exists()

    def test_determinism_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["simulate1d", "--config", str(cfg), "--out", str(out)])
            outs.append(out)
        for snap in sorted(outs[0].glob("*.csv")):
            assert snap.read_bytes() == (outs[1] / snap.name).read_bytes()

    def test_manifest_config_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        first = tmp_path / "first"
        main(["simulate1d", "--config", str(cfg), "--out", str(first)])
        manifest = json.loads((first / "manifest.json").read_text())
        replay_cfg = write_config(tmp_path, manifest["config"], name="replay.yaml")
        second = tmp_path / "second"
        main(["simulate1d", "--config", str(replay_cfg), "--out", str(second)])
        for snap in sorted(first.glob("*.csv")):
            assert snap.read_bytes() == (second / snap.name).read_bytes()

    def test_input_config_not_mutated(self, tmp_path):
        cfg = write_config(tmp_path, small_1d_config())
        before = cfg.read_bytes()
        main(["simulate1d", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert cfg.read_bytes() == before


class TestOtherCommands:
    def test_simulate2d_and_snapshot_header(self, tmp_path):
        cfg = {
            "model": "d2q2",
            "run_id": "t2",
            "grid": {"n_x": 8, "n_y": 8, "ds": 1.0},
            "collision": {"theta": 1.0},
            "initial": {"rho_b": 1.0, "rho_a": 0.1},
            "velocity_set": {"name": "orthogonal"},
            "steps": 4,
            "snapshot_stride": 2,
        }
        out = tmp_path / "out"
        rc = main(["simulate2d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        header = (out / "t2_t4.csv").read_text().splitlines()[0]
        assert header == "t,x,y,rho,u,f0,f1"

    def test_2d_snapshots_read_back(self, tmp_path):
        from qlgburgers.io import read_trace_1d

        cfg = {
            "model": "d2q2",
            "run_id": "rb",
            "grid": {"n_x": 8, "n_y": 6, "ds": 1.0},
            "collision": {"theta": 1.0},
            "initial": {"rho_b": 1.0, "rho_a": 0.1},
            "velocity_set": {"name": "axis_symmetric"},
            "steps": 4,
            "snapshot_stride": 2,
        }
        out = tmp_path / "out"
        main(["simulate2d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        steps, _, rho = read_trace_1d(out, "rb")
        assert list(steps) == [0, 2, 4]
        assert rho.shape == (3, 8 * 6)
        assert float(rho[0].sum()) == pytest.approx(48.0, abs=1e-8)

    def test_analytic_snapshots(self, tmp_path):
        cfg = {
            "model": "analytic",
            "run_id": "ana",
            "grid": {"n_x": 16, "length_x": 2.0},
            "collision": {"theta": 1.0471975511965976},
            "initial": {"rho_b": 1.0, "rho_a": 0.2},
            "steps": 4,
            "snapshot_stride": 2,
        }
        out = tmp_path / "out"
        rc = main(["analytic", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        text = (out / "ana_t0.csv").read_text().splitlines()
        assert text[0] == "t,x,rho"
        rho0 = float(text[1].split(",")[2])
        assert rho0 == pytest.approx(1.2, abs=1e-6)

    def test_fdm1d_runs(self, tmp_path):
        cfg = {
            "model": "fdm1d",
            "run_id": "f1",
            "grid": {"n_x": 32, "length_x": 2.0},
            "collision": {"theta": 1.0471975511965976},
            "initial": {"rho_b": 1.0, "rho_a": 0.05},
            "steps": 10,
            "snapshot_stride": 5,
            "fdm": {"substeps": 4},
        }
        out = tmp_path / "out"
        rc = main(["fdm1d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["divergence_step"] is None

    def test_fdm1d_auto_substeps_bound_the_step(self, tmp_path):
        # fig4's grid and angle: the embedded axis-symmetric coefficients
        # a = 0, b = (c_s, 0), D = diag(nu, 0) need 3 substeps per step
        out = tmp_path / "out"
        rc = main(
            [
                "fdm1d",
                "--config",
                str(CONFIGS / "fig4.yaml"),
                "--out",
                str(out),
                "--override",
                "model=fdm1d",
                "--override",
                "steps=8",
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["fdm"]["substeps"] == "auto"
        assert manifest["results"]["substeps"] == 3

    def test_fdm2d_divergence_exit_code(self, tmp_path):
        # substeps forced to 1 with strong advection: the solver must blow
        # up, exit 2, and record the first bad step
        cfg = {
            "model": "fdm2d",
            "run_id": "fdiv",
            "grid": {"n_x": 32, "n_y": 32, "ds": 1.0},
            "collision": {"theta": 1.0471975511965976},
            "initial": {"rho_b": 1.0, "rho_a": 0.4},
            "velocity_set": {"name": "triangular"},
            "steps": 200,
            "snapshot_stride": 50,
            "fdm": {"substeps": 1},
        }
        out = tmp_path / "out"
        rc = main(["fdm2d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["divergence_step"] is not None

    @pytest.mark.parametrize(
        "command, setup, steps",
        [
            ("fdm2d", {"grid": {"n_x": 128, "n_y": 128}, "velocity_set": {"name": "orthogonal"}}, 40),
            ("fdm1d", {"grid": {"n_x": 4096, "length_x": 2.0}}, 100),
        ],
    )
    def test_fdm_snapshots_are_written_as_solved(self, tmp_path, command, setup, steps):
        # the run holds no trace: with one snapshot per step its traced peak stays
        # below 3 MB, where its snapshots alone take 5.4 MB (fdm2d) and 3.3 MB (fdm1d)
        cfg = {
            "model": command,
            "run_id": "mem",
            **setup,
            "collision": {"theta": 1.0471975511965976},
            "initial": {"rho_b": 1.0, "rho_a": 0.1},
            "snapshot_stride": 1,
        }
        warm = write_config(tmp_path, {**cfg, "steps": 2}, "warm.yaml")
        assert main([command, "--config", str(warm), "--out", str(tmp_path / "warm")]) == 0
        path = write_config(tmp_path, {**cfg, "steps": steps})
        tracemalloc.start()
        try:
            rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(list((tmp_path / "out").glob("mem_t*.csv"))) == steps + 1
        assert peak < 3_000_000

    def test_fdm2d_rejects_1d_coefficient_keys(self, tmp_path, capsys):
        # fdm.c_s and fdm.nu set the 1D solver only; fdm2d builds its
        # coefficients from the velocity set and must not ignore them silently
        for key in ("fdm.nu=5.0", "fdm.c_s=100.0"):
            rc = main(
                [
                    "fdm2d",
                    "--config",
                    str(CONFIGS / "fig9.yaml"),
                    "--out",
                    str(tmp_path / "out"),
                    "--override",
                    "model=fdm2d",
                    "--override",
                    "steps=8",
                    "--override",
                    key,
                ]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert f"unknown config key '{key.partition('=')[0]}'" in err
        assert not (tmp_path / "out").exists()

    def test_viscosity_sweep_csv(self, tmp_path):
        cfg = {
            "model": "viscosity-sweep",
            "run_id": "vs",
            "sweep": {"theta_start": 1.2, "theta_stop": 1.4, "count": 3, "T": 30},
        }
        out = tmp_path / "out"
        rc = main(
            ["viscosity-sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "vs_sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,nu_pred,nu_yepez,nu_exp,kept_fraction,T"
        assert len(lines) == 4

    def test_steepness_sweep_csv(self, tmp_path):
        cfg = {
            "model": "steepness-sweep",
            "run_id": "st",
            "steepness": {"theta_stop": 1.3, "count": 2, "T_values": [20], "n_x_values": [16]},
        }
        out = tmp_path / "out"
        rc = main(
            ["steepness-sweep", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "st_steepness.csv").read_text().splitlines()
        assert lines[0] == "theta,n_x,T,delta"

    def test_compare_analytic_pipeline(self, tmp_path):
        sim_cfg = small_1d_config(run_id="src", steps=64, snapshot_stride=8)
        sim_out = tmp_path / "sim"
        main(["simulate1d", "--config", str(write_config(tmp_path, sim_cfg)), "--out", str(sim_out)])
        cmp_cfg = {
            "model": "compare-analytic",
            "run_id": "cmp",
            "grid": sim_cfg["grid"],
            "collision": sim_cfg["collision"],
            "initial": sim_cfg["initial"],
            "compare": {"input": str(sim_out), "input_run_id": "src"},
        }
        out = tmp_path / "cmp"
        rc = main(
            [
                "compare-analytic",
                "--config",
                str(write_config(tmp_path, cmp_cfg, name="cmp.yaml")),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        for variant in ("corrected", "yepez"):
            lines = (out / f"cmp_mse_{variant}.csv").read_text().splitlines()
            assert lines[0] == "t,metric"
            values = [float(l.split(",")[1]) for l in lines[1:]]
            assert all(np.isfinite(values))

    @staticmethod
    def compare_analytic(tmp_path, input_run_id, overrides=(), **over):
        """Exit code of compare-analytic on a 1D setup, reading run ``input_run_id`` of ``tmp_path / 'sim'``."""
        cfg = {
            **{k: small_1d_config(**over)[k] for k in ("grid", "collision", "initial")},
            "model": "compare-analytic",
            "run_id": "cmp",
            "compare": {"input": str(tmp_path / "sim"), "input_run_id": input_run_id},
        }
        path = write_config(tmp_path, cfg, name="cmp.yaml")
        extra = [arg for override in overrides for arg in ("--override", override)]
        return main(["compare-analytic", "--config", str(path), "--out", str(tmp_path / "cmp"), *extra])

    @staticmethod
    def simulate(tmp_path, run_id, **over):
        cfg = write_config(tmp_path, small_1d_config(run_id=run_id, **over), name="sim.yaml")
        assert main(["simulate1d", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0

    def test_compare_analytic_reads_a_run_id_literally(self, tmp_path, capsys):
        # a run id holding glob characters names its own snapshots, and only them
        self.simulate(tmp_path, "fig[4]")
        self.simulate(tmp_path, "ab")
        assert (tmp_path / "sim" / "fig[4]_t0.csv").exists()
        assert self.compare_analytic(tmp_path, "fig[4]") == 0
        capsys.readouterr()
        assert self.compare_analytic(tmp_path, "a?") == 1
        assert capsys.readouterr().err.startswith("config error: no snapshots matching a?_t*.csv")

    @pytest.mark.parametrize(
        "override, message",
        [
            ("grid.n_x=32", "config key 'grid.n_x'=32 does not match input snapshots (16 sites)"),
            (
                "grid.length_x=4.0",
                "config key 'grid.length_x' implies dx=0.25 but input snapshots have spacing 0.125",
            ),
        ],
    )
    def test_compare_analytic_grid_must_match_its_input(self, tmp_path, capsys, override, message):
        self.simulate(tmp_path, "src")  # 16 sites at dx = 0.125
        capsys.readouterr()
        assert self.compare_analytic(tmp_path, "src", [override]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not list((tmp_path / "cmp").glob("*.csv"))

    @pytest.mark.parametrize("command", ["analytic", "compare-analytic"])
    def test_theta_near_half_pi_exits_before_the_series(self, tmp_path, capsys, command):
        # the Bessel argument A grows like 1/(pi/2 - theta): on the fig4 setup A = 8e7,
        # whose recurrence table alone would take 1.3 GB per evaluation
        theta = "collision.theta=1.5707962267948966"  # pi/2 - 1e-7
        fig4 = {"grid": {"n_x": 64, "length_x": 2.0}, "initial": {"rho_b": 1.0, "rho_a": 0.4}}
        self.simulate(tmp_path, "src", **fig4)
        capsys.readouterr()
        start = time.perf_counter()
        if command == "analytic":
            cfg = write_config(tmp_path, {**small_1d_config(**fig4), "model": "analytic"})
            rc = main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "ana"), "--override", theta])
        else:
            rc = self.compare_analytic(tmp_path, "src", [theta], **fig4)
        assert time.perf_counter() - start < 2.0
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == (
            "config error: config key 'collision.theta' invalid: "
            "Bessel argument A = 7.97796e+07 exceeds 10000000 in magnitude"
        )

    def test_compare_2d_pipeline(self, tmp_path):
        cfg = {
            "model": "compare-2d",
            "run_id": "c2",
            "grid": {"n_x": 16, "n_y": 16, "ds": 1.0},
            "collision": {"theta": 1.0471975511965976},
            "initial": {"rho_b": 1.0, "rho_a": 0.05},
            "velocity_set": {"name": "orthogonal"},
            "steps": 20,
            "snapshot_stride": 5,
        }
        out = tmp_path / "out"
        rc = main(["compare-2d", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert rc == 0
        lines = (out / "c2_l2.csv").read_text().splitlines()
        assert lines[0] == "t,metric"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "divergence_step" in manifest["results"]
        assert "substeps" in manifest["results"]


class TestCheckedInConfigs:
    def test_all_configs_parse(self, tmp_path):
        # every checked-in config resolves cleanly against its schema
        from qlgburgers.cli import SCHEMAS, _resolve

        commands = {
            "fig3_short": "viscosity-sweep",
            "fig3_long": "viscosity-sweep",
            "fig4": "simulate1d",
            "fig6": "steepness-sweep",
            "fig8_set1": "simulate2d",
            "fig8_set2": "simulate2d",
            "fig8_set3": "simulate2d",
            "fig8_set4": "simulate2d",
            "fig9": "compare-2d",
        }
        for name, command in commands.items():
            raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
            _resolve(raw, SCHEMAS[command])

    def test_sweep_manifest_lists_every_failed_angle(self, tmp_path):
        # four angles just above pi/2 agree to 7 digits; each error row keeps its own entry
        out = tmp_path / "out"
        overrides = ["sweep.theta_start=1.5707964", "sweep.theta_stop=1.5707965"]
        overrides += ["sweep.count=4", "sweep.T=5"]
        argv = ["viscosity-sweep", "--config", str(CONFIGS / "fig3_long.yaml"), "--out", str(out)]
        assert main(argv + [arg for o in overrides for arg in ("--override", o)]) == 0
        rows = (out / "fig3_long_sweep.csv").read_text().splitlines()[1:]
        failures = json.loads((out / "manifest.json").read_text())["results"]["failures"]
        thetas = np.linspace(1.5707964, 1.5707965, 4)
        assert len(rows) == 4 and all(",nan,nan,,0,5" in row for row in rows)
        assert [(f["row"], f["theta"]) for f in failures] == list(enumerate(thetas.tolist()))
        assert all("theta must lie in (0, pi/2]" in f["error"] for f in failures)

    def test_sweep_manifest_counts_error_rows_of_equal_angles(self, tmp_path):
        # three rows at the same angle give three error rows and three failures
        out = tmp_path / "out"
        overrides = ["sweep.theta_start=1.6", "sweep.theta_stop=1.6", "sweep.count=3", "sweep.T=5"]
        argv = ["viscosity-sweep", "--config", str(CONFIGS / "fig3_long.yaml"), "--out", str(out)]
        assert main(argv + [arg for o in overrides for arg in ("--override", o)]) == 0
        rows = (out / "fig3_long_sweep.csv").read_text().splitlines()[1:]
        failures = json.loads((out / "manifest.json").read_text())["results"]["failures"]
        assert len(rows) == 3 and all(",nan,nan,,0,5" in row for row in rows)
        assert [(f["row"], f["theta"]) for f in failures] == [(0, 1.6), (1, 1.6), (2, 1.6)]
        assert all("theta must lie in (0, pi/2]" in f["error"] for f in failures)

    def test_fig4_config_runs_reduced(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "simulate1d",
                "--config",
                str(CONFIGS / "fig4.yaml"),
                "--out",
                str(out),
                "--override",
                "steps=16",
                "--override",
                "snapshot_stride=8",
            ]
        )
        assert rc == 0
        assert (out / "fig4_t16.csv").exists()

    @pytest.mark.parametrize(
        "name, command, csv, digest",
        [
            (
                "fig3_short",
                "viscosity-sweep",
                "fig3_short_sweep.csv",
                "66cf1971ebe571a2699eb02ecbdac44275b375294edccbc9566a368bd98ce868",
            ),
            (
                "fig3_long",
                "viscosity-sweep",
                "fig3_long_sweep.csv",
                "9c7ddc32f84691a68d2bb4896b792fca1e83032178ec61d48edd43878764790b",
            ),
            (
                "fig6",
                "steepness-sweep",
                "fig6_steepness.csv",
                "7d4d20ba4031206ac4d82c3b78282ed77ed72e45b0cf6bf0dd4142acf11b683e",
            ),
        ],
    )
    def test_sweep_bytes_pinned(self, tmp_path, name, command, csv, digest):
        # the sha256 of each checked-in sweep's CSV, as the per-angle runs wrote it
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
        assert hashlib.sha256((out / csv).read_bytes()).hexdigest() == digest

    def test_snapshot_2d_bytes_pinned(self, tmp_path):
        # the sha256 of every snapshot of a reduced fig8_set4 run: 4096 rows of
        # 17-digit floats each, over many writer blocks
        out = tmp_path / "out"
        args = ["--out", str(out), "--override", "steps=40", "--override", "snapshot_stride=20"]
        assert main(["simulate2d", "--config", str(CONFIGS / "fig8_set4.yaml"), *args]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
        assert digests == {
            "fig8_set4_t0.csv": "323ac3abdb4fce2a0559d1987f2b75ca4ddbd29e3e25acca483a4452e9dc83e9",
            "fig8_set4_t20.csv": "d94deb16c5eb9a64932204102c6aa96726b65fb85826ef7d604db597c882d43f",
            "fig8_set4_t40.csv": "2d5204f4b4d1c271ac016aba67caf307ee3aeebc4fbce447f25833301124a7aa",
        }

    @pytest.mark.parametrize(
        "overrides, rc, div_step, n_csv, digest",
        [
            ([], 0, None, 65, "2192e35aabefa00bfebea06c9f07b5b68f6acc769637ca2bf5a40baf337a4af7"),
            (
                ["fdm.c_s=60", "fdm.substeps=1"],
                2,
                49,
                7,
                "b92602bc6fc983ee75523d745a008a7f48e7622fd9a9bf1199c92c707412f425",
            ),
        ],
    )
    def test_fdm1d_bytes_pinned(self, tmp_path, overrides, rc, div_step, n_csv, digest):
        # one sha256 over the names and bytes of every fdm1d snapshot of fig4,
        # in step order: with auto substeps, and a run that diverges
        out = tmp_path / "out"
        args = ["--out", str(out), "--override", "model=fdm1d"]
        for item in overrides:
            args += ["--override", item]
        assert main(["fdm1d", "--config", str(CONFIGS / "fig4.yaml"), *args]) == rc
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["divergence_step"] == div_step
        paths = sorted(out.glob("*.csv"), key=lambda p: int(p.stem.rsplit("_t", 1)[1]))
        assert len(paths) == n_csv
        sha = hashlib.sha256()
        for path in paths:
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize(
        "command, overrides, rc, div_step, n_csv, digest",
        [
            (
                "fdm2d",
                ["model=fdm2d", "steps=40", "snapshot_stride=20"],
                0,
                None,
                3,
                "ae67bb077afa7340d8a9ed7e87645db5d18f0b68659d6719d5c480234873da82",
            ),
            (
                "fdm2d",
                ["model=fdm2d", "fdm.substeps=1", "steps=200", "snapshot_stride=20"],
                2,
                141,
                8,
                "9fe9972437241a26e0df61f68d6c7fa3f993c0d93467795cae1cbf3257d9fdb8",
            ),
            (
                "compare-2d",
                ["steps=40", "snapshot_stride=4"],
                0,
                None,
                1,
                "aba5fe94fb5834ddfa2cdcc310afbec348174a107d2ec13f28feacf840dd3b72",
            ),
        ],
    )
    def test_fdm2d_bytes_pinned(self, tmp_path, command, overrides, rc, div_step, n_csv, digest):
        # one sha256 over the names and bytes of every CSV of a reduced fig9 run,
        # in name order: fdm2d with auto substeps, an fdm2d run that diverges, and
        # compare-2d's L2 series (fig9_l2.csv)
        out = tmp_path / "out"
        args = ["--out", str(out)]
        for item in overrides:
            args += ["--override", item]
        assert main([command, "--config", str(CONFIGS / "fig9.yaml"), *args]) == rc
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"].get("divergence_step") == div_step
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == n_csv
        sha = hashlib.sha256()
        for path in paths:
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
        assert sha.hexdigest() == digest


class TestConsoleEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(small_1d_config()))
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "qlgburgers.cli",
                "simulate1d",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
