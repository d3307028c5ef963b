import argparse
import dataclasses
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from copulakit import (GridCopula, cube_copula, d_inf, empirical_copula, kernel_cdf, load_sample,
                       sample, save_sample)
from copulakit import cli as cli_mod
from copulakit import pvc as pvc_mod
from copulakit import verify as verify_mod
from copulakit.cli import FAMILIES, _build_parser, main, parse_operand
from copulakit.errors import BadDimension

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/copulakit/schemas/report.schema.json")
    .read_text()
)


def run(args):
    return main(args)


class TestMake:
    def test_grid_file_round_trip(self, tmp_path, cube):
        out = tmp_path / "cube.json"
        assert run(["make", "cube", "--out", str(out)]) == 0
        back = GridCopula.from_json(out.read_text())
        assert np.array_equal(back.masses, cube.masses)

    def test_descriptor_for_analytic_family(self, tmp_path):
        out = tmp_path / "seq.json"
        assert run(["make", "efgm-seq:m=3,k=1,dim=3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload == {"family": "efgm-seq", "params": {"m": "3", "k": "1", "dim": "3"}}
        cop = parse_operand(str(out))
        assert cop.dim == 3

    def test_discretized_make(self, tmp_path):
        out = tmp_path / "sh.json"
        assert run(["make", "shuffle-d1", "--res", "8x8", "--out", str(out)]) == 0
        g = GridCopula.from_json(out.read_text())
        assert g.resolutions == [8, 8]

    def test_pi_with_res(self, tmp_path):
        out = tmp_path / "pi.json"
        assert run(["make", "pi:dim=3", "--res", "2", "--out", str(out)]) == 0
        g = GridCopula.from_json(out.read_text())
        assert g.resolutions == [2, 2, 2]
        # the family's own resolution parameter, which no make flag could set
        assert run(["make", "pi:dim=3,res=2x3x4", "--out", str(out)]) == 0
        assert GridCopula.from_json(out.read_text()).resolutions == [2, 3, 4]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_round_trips(self, tmp_path, name):
        # the file make writes, a grid or a descriptor, reads back as the
        # operand the name builds
        out = tmp_path / "op.json"
        spec = "efgm-seq:m=2,k=3" if name == "efgm-seq" else name
        assert run(["make", spec, "--out", str(out)]) == 0
        direct = parse_operand(spec)
        back = parse_operand(str(out))
        axes = [np.linspace(0, 1, 7)] * direct.dim
        assert np.array_equal(back.cdf_on_lattice(axes), direct.cdf_on_lattice(axes))


class TestMetricCommand:
    def test_self_distance_zero(self, tmp_path, capsys):
        assert run(["metric", "--name", "dinf", "--a", "example54",
                    "--b", "example54"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["value"] == 0.0
        # the scan fallback's certificate is far wider than the default eps
        assert payload["error"] > 1e-8 and payload["target_met"] is False

    def test_grid_pair(self, tmp_path, capsys):
        assert run(["metric", "--name", "tv", "--a", "cube", "--b", "pi:res=2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 0.5

    def test_exact_grid_pair_meets_eps(self, capsys):
        assert run(["metric", "--name", "dinf", "--a", "cube", "--b", "pi:res=2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == 0.0 and payload["target_met"] is True

    def test_kernel_sup_error_brackets_truth(self, capsys):
        # sup over u of the integral of |1 - 2t| u1 (1 - u1) u2 (1 - u2) is 1/32;
        # the requested 1e-12 is out of the quadrature's reach
        assert run(["metric", "--name", "dinfk", "--a", "efgm", "--b", "pi-analytic",
                    "--eps", "1e-12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target_met"] is False
        assert abs(payload["value"] - 1 / 32) <= payload["error"]

    def test_numerical_error_exit_code(self, capsys):
        # kl support violation maps to exit code 3
        assert run(["metric", "--name", "kl", "--a", "pi:res=2", "--b", "cube"]) == 3


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required(self):
        assert run(["metric", "--name", "dinf", "--a", "cube"]) == 2


# what each subcommand accepts: options by flag, positional arguments by name
OPTIONS = {
    "make": {"family", "--res", "--out"},
    "metric": {"--name", "--a", "--b", "--axis", "--eps", "--out"},
    "kernel": {"--in", "--t", "--u", "--cond-axes", "--out"},
    "conditional": {"--in", "--slab", "--out"},
    "partial": {"--in", "--out"},
    "simplified": {"--in", "--tol", "--out"},
    "jfun": {"--a", "--b", "--out"},
    "pvc": {"--in", "--dvine", "--order", "--res", "--report", "--out"},
    "sample": {"--in", "--n", "--seed", "--out"},
    "empirical": {"--in", "--jitter", "--out"},
    "verify": {"case", "--out"},
    "discontinuity": {"--n-list", "--seed", "--format", "--out"},
    "nonopt": {"--n", "--seed", "--out"},
    "nowheredense": {"--seed", "--out"},
    "convergence-lab": {"--mode", "--max-m", "--format", "--out"},
}


class TestOptions:
    def test_each_subcommand_accepts_exactly_its_options(self):
        ap = _build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            name: {a.option_strings[-1] if a.option_strings else a.dest
                   for a in parser._actions if not isinstance(a, argparse._HelpAction)}
            for name, parser in sub.choices.items()
        }
        assert accepted == OPTIONS
        assert sum(len(v) for v in OPTIONS.values()) == 53

    @pytest.mark.parametrize("args", [
        ["verify", "cube-worst-case", "--seed", "5"],
        ["make", "cube", "--eps", "1"],
        ["jfun", "--a", "cube", "--b", "cube", "--eps", "1e-3"],
        ["nonopt", "--n", "24", "--format", "csv"],
        ["pvc", "--in", "cube", "--report", "r.json", "--eps", "1e-12"],
        ["make", "efgm-seq", "--m", "2", "--k", "3"],
    ], ids=["verify-seed", "make-eps", "jfun-eps", "nonopt-format", "pvc-eps",
            "make-parameter-flags"])
    def test_option_a_subcommand_does_not_read_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sample_reads_seed(self, tmp_path):
        paths = [tmp_path / f"s{seed}.csv" for seed in (5, 6)]
        for seed, path in zip((5, 6), paths):
            assert run(["sample", "--in", "cube", "--n", "8", "--seed", str(seed),
                        "--out", str(path)]) == 0
        assert paths[0].read_text() != paths[1].read_text()


class TestMalformedInput:
    @pytest.mark.parametrize("kind", ["truncated-masses", "missing-resolutions",
                                      "not-json", "non-integer-param", "unknown-family",
                                      "shuffle-d9", "shuffle-d12"])
    def test_bad_operand_is_usage_error(self, tmp_path, capsys, kind):
        path = tmp_path / "op.json"
        grid = {"dim": 2, "resolutions": [2, 2], "masses": [0.5, 0.0, 0.0, 0.5]}
        if kind == "truncated-masses":
            path.write_text(json.dumps({**grid, "masses": [0.5, 0.0, 0.0]}))
        elif kind == "missing-resolutions":
            path.write_text(json.dumps({"dim": 2, "masses": grid["masses"]}))
        elif kind == "not-json":
            path.write_text("not json {")
        operand = {"non-integer-param": "m:dim=x",
                   "unknown-family": "nosuchfamily",
                   "shuffle-d9": "shuffle-d9",
                   "shuffle-d12": "shuffle-d12"}.get(kind, str(path))
        assert run(["metric", "--name", "tv", "--a", operand, "--b", "cube"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["metric", "--name", "tv", "--a", "cube:foo=1", "--b", "cube"],
        ["metric", "--name", "tv", "--a", "cube:dim=3", "--b", "cube"],
        ["make", "efgm:m=3"],
        ["make", "efgm-seq:m=3"],
        ["make", "product-extend:base=efgm"],
        ["pvc", "--in", "cube", "--res", "4x4"],
    ], ids=["unknown-param", "dim-of-cube", "make-efgm-m", "make-efgm-seq-no-k",
            "product-extend-analytic-base", "pvc-res-axes"])
    def test_parameter_the_family_does_not_take_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["discontinuity", "--n-list", "a"],
        ["kernel", "--in", "cube", "--t", "x", "--u", "0.5,0.5"],
        ["kernel", "--in", "cube", "--t", "0.5", "--u", "0.5,y"],
        ["kernel", "--in", "cube", "--t", "0.5", "--u", "0.5,0.5", "--cond-axes", "z"],
        ["make", "cube", "--res", "x"],
        ["make", "cube", "--res", "4xq"],
        ["pvc", "--in", "cube", "--res", "x"],
    ], ids=["n-list", "kernel-t", "kernel-u", "cond-axes", "make-res", "make-res-axis",
            "pvc-res"])
    def test_malformed_number_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["make", "cube", "--res", "0"],
        ["make", "cube", "--res", "-2"],
        ["make", "cube", "--res", "4x0x4"],
        ["pvc", "--in", "cube", "--res", "0"],
        ["metric", "--name", "d1", "--a", "cube", "--b", "pi:res=0"],
    ], ids=["make-zero", "make-negative", "make-zero-axis", "pvc-zero", "pi-res-zero"])
    def test_resolution_below_one_cell_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert "at least one cell" in capsys.readouterr().err

    @pytest.mark.parametrize("name, a, b", [
        ("d1", "cube", "pi:dim=4"), ("dinf", "example54", "pi-analytic:dim=4"),
        ("tv", "cube", "pi:dim=2"), ("kl", "bstar", "cube"), ("d2", "efgm:dim=4", "cube"),
    ])
    def test_operands_of_different_dimension_are_usage_error(self, capsys, name, a, b):
        assert run(["metric", "--name", name, "--a", a, "--b", b]) == 2
        assert "differ in dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("t, u", [
        ("1.5", "0.5,0.5"), ("-0.1", "0.5,0.5"), ("nan", "0.5,0.5"), ("inf", "0.5,0.5"),
        ("0.5", "1.5,0.5"), ("0.5", "0.5,nan"),
    ])
    def test_kernel_argument_outside_the_unit_interval_is_usage_error(self, capsys, t, u):
        assert run(["kernel", "--in", "cube", "--t", t, "--u", u]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("t, u, cond", [
        ("0.5", "0.5", None), ("", "0.5,0.5", None), ("0.5,0.5", "0.5,0.5", None),
        ("0.5", "0.5,0.5,0.5", None), ("0.5", "0.5", "0,1"), ("0.5,0.5", "0.5,0.5", "0,1"),
    ], ids=["one-u", "no-t", "two-t", "three-u", "cond-one-t", "cond-two-u"])
    def test_kernel_argument_count_is_usage_error(self, capsys, t, u, cond):
        # one --t per conditioning axis, one --u per free axis
        args = ["kernel", "--in", "cube", "--t", t, "--u", u]
        assert run(args + (["--cond-axes", cond] if cond else [])) == 2
        assert "one per free axis" in capsys.readouterr().err

    def test_kernel_arguments_on_the_unit_interval_ends_are_read(self, capsys):
        assert run(["kernel", "--in", "cube", "--t", "1", "--u", "1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    @pytest.mark.parametrize("text, message", [
        ("x1,x2,x3\n0.1,0.2,0.3\n0.4,nan,0.6\n0.7,0.8,0.9\n", "finite"),
        ("x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,inf\n0.7,0.8,0.9\n", "finite"),
        ("0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n", "header"),
        ("", "empty"),
        ("x1,x2,x3\n0.1,0.2,0.3\n0.4,x,0.6\n", "not a number"),
    ], ids=["nan", "inf", "headerless", "empty", "non-numeric"])
    def test_malformed_sample_is_usage_error(self, tmp_path, capsys, text, message):
        csv = tmp_path / "s.csv"
        csv.write_text(text)
        for args in (["empirical", "--in", str(csv)],
                     ["metric", "--name", "dinf", "--a", str(csv), "--b", "cube"]):
            assert run(args) == 2
            assert message in capsys.readouterr().err

    def test_one_column_sample_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("x1\n0.1\n0.5\n0.9\n")
        for args in (["metric", "--name", "dinf", "--a", str(csv), "--b", str(csv)],
                     ["empirical", "--in", str(csv)],
                     ["pvc", "--in", str(csv)]):
            assert run(args) == 2
            assert "two columns" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["pvc", "--in", "cube", "--order", "0,2,1"],
        ["metric", "--name", "dinf", "--a", "cube", "--b", "cube", "--axis", "0"],
        ["metric", "--name", "tv", "--a", "cube", "--b", "cube", "--axis", "0"],
        ["metric", "--name", "kl", "--a", "cube", "--b", "cube", "--axis", "0"],
        ["metric", "--name", "tv", "--a", "cube", "--b", "cube", "--eps", "5"],
        ["metric", "--name", "kl", "--a", "cube", "--b", "cube", "--eps", "5"],
        ["convergence-lab", "--mode", "d1-continuity", "--max-m", "3"],
    ], ids=["pvc-order", "dinf-axis", "tv-axis", "kl-axis", "tv-eps", "kl-eps",
            "continuity-max-m"])
    def test_option_the_mode_ignores_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out.json"
        assert run(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["metric", "--name", "d1", "--a", "cube", "--b", "cube", "--axis", "7"],
        ["metric", "--name", "dinfk", "--a", "cube", "--b", "cube", "--axis", "-1"],
        ["kernel", "--in", "cube", "--t", "0.5", "--u", "0.5,0.5", "--cond-axes", "5"],
        ["conditional", "--in", "cube", "--slab", "9"],
    ], ids=["metric-axis", "metric-negative-axis", "kernel-cond-axes", "conditional-slab"])
    def test_out_of_range_index_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("order, message", [
        ("0,1", "not a permutation of 0..2"), ("0,0,1", "not a permutation of 0..2"),
        ("0,1,5", "--order 5 out of range 0..2"), ("0,1,2,3", "--order 3 out of range 0..2"),
        ("2,-1,0", "--order -1 out of range 0..2"),
    ], ids=["short", "repeated", "out-of-range", "long", "negative"])
    def test_a_ladder_order_that_is_no_permutation_is_usage_error(
            self, tmp_path, capsys, monkeypatch, order, message):
        # checked before the ladder runs
        monkeypatch.setattr(cli_mod, "pvc_dvine", lambda *a, **k: pytest.fail("ladder ran"))
        src = tmp_path / "g.json"
        src.write_text(verify_mod.random_copula_grid(np.random.default_rng(0), [2] * 3).to_json())
        assert run(["pvc", "--in", str(src), "--dvine", "--order", order]) == 2
        assert message in capsys.readouterr().err

    def test_a_repeated_conditioning_axis_is_usage_error(self, capsys):
        assert run(["kernel", "--in", "cube", "--t", "0.3,0.4", "--u", "0.5",
                    "--cond-axes", "0,0"]) == 2
        assert "repeats an axis" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5", "inf"])
    @pytest.mark.parametrize("args", [
        ["simplified", "--in", "pi:res=2", "--tol"],
        ["metric", "--name", "d1", "--a", "efgm", "--b", "pi-analytic", "--eps"],
    ], ids=["tol", "eps"])
    def test_a_tolerance_not_finite_and_nonnegative_is_usage_error(self, capsys, args, value):
        assert run(args + [value]) == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err

    def test_a_zero_tolerance_is_read(self, capsys):
        assert run(["simplified", "--in", "pi:res=2", "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["simplified"] is True

    @pytest.mark.parametrize("args", [
        ["sample", "--in", "cube", "--n", "5", "--seed", "-1"],
        ["discontinuity", "--n-list", "10", "--seed", "-1"],
        ["nonopt", "--seed", "-1"],
        ["nowheredense", "--seed", "-1"],
        ["sample", "--in", "cube", "--n", "0"],
        ["nonopt", "--n", "0"],
        ["discontinuity", "--n-list", "0"],
        ["discontinuity", "--n-list", "-5"],
        ["discontinuity", "--n-list", "10,0"],
    ], ids=["sample-seed", "discontinuity-seed", "nonopt-seed", "nowheredense-seed",
            "sample-n", "nonopt-n", "n-list-zero", "n-list-negative", "n-list-one-zero"])
    def test_negative_seed_or_empty_sample_is_usage_error(self, capsys, args):
        assert run(args) == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        f"{name}:{'m=2,k=1,' if 'k' in reads else ''}dim={dim}"
        for name, (_, reads) in FAMILIES.items() if "dim" in reads for dim in (0, 1)])
    def test_family_dimension_below_two_is_bad_dimension(self, capsys, spec):
        with pytest.raises(BadDimension):
            parse_operand(spec)
        for name in ("dinf", "d1"):
            # the exit code of pi:dim=1, a grid that checks its dimension
            assert run(["metric", "--name", name, "--a", spec, "--b", spec]) == 3
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name", ["d1", "d2", "dinfk"])
    def test_axis_an_analytic_kernel_cannot_take_is_numerical_error(self, capsys, name):
        # outside a grid pair the kernels condition on the last axis only
        assert run(["metric", "--name", name, "--a", "efgm", "--b", "pi-analytic",
                    "--axis", "0"]) == 3
        assert "last axis" in capsys.readouterr().err

    def test_in_range_options_are_read(self, capsys):
        assert run(["metric", "--name", "d1", "--a", "cube", "--b", "pi:res=2",
                    "--axis", "0", "--eps", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1 / 16
        assert run(["conditional", "--in", "cube", "--slab", "1"]) == 0

    @pytest.mark.parametrize("args", [
        ["empirical", "--in", "{missing}.csv"],
        ["metric", "--name", "tv", "--a", "{missing}.json", "--b", "cube"],
        ["metric", "--name", "tv", "--a", "cube", "--b", "missing.json"],
        ["simplified", "--in", "{missing}.csv"],
    ], ids=["empirical-csv", "metric-json-path", "metric-json-name", "simplified-csv"])
    def test_missing_file_is_usage_error(self, tmp_path, capsys, args):
        missing = str(tmp_path / "nothing-here")
        assert run([a.replace("{missing}", missing) for a in args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_sample_size_list_is_usage_error(self, tmp_path, capsys, fmt):
        out = tmp_path / "rows"
        assert run(["discontinuity", "--n-list", "", "--format", fmt,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOperandKinds:
    @pytest.mark.parametrize("args", [
        ["jfun", "--a", "efgm", "--b", "pi-analytic"],
        ["simplified", "--in", "efgm"],
        ["conditional", "--in", "example54", "--slab", "0"],
        ["partial", "--in", "efgm"],
        ["partial", "--in", "example54"],
    ], ids=["jfun", "simplified", "conditional", "partial-efgm", "partial-example54"])
    def test_analytic_operand_is_not_discretized(self, capsys, args):
        assert run(args) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_sample_needs_a_grid(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert run(["sample", "--in", "cube", "--n", "8", "--out", str(csv)]) == 0
        for operand, hint in (("efgm", "make <family> --res N"),
                              (str(csv), "empirical --in s.csv")):
            assert run(["sample", "--in", operand, "--n", "4"]) == 2
            assert hint in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["tv", "kl"])
    def test_measure_metrics_need_grids(self, tmp_path, capsys, name):
        csv = tmp_path / "s.csv"
        assert run(["sample", "--in", "cube", "--n", "30", "--out", str(csv)]) == 0
        for operand in (str(csv), "efgm"):
            assert run(["metric", "--name", name, "--a", operand, "--b", "cube"]) == 3
            err = capsys.readouterr().err
            assert "empirical --in s.csv" in err and "make <family> --res N" in err

    def test_six_dimensional_sample(self, tmp_path, capsys):
        csv = tmp_path / "s6.csv"
        save_sample(csv, np.random.default_rng(6).random((10, 6)))
        assert run(["metric", "--name", "dinf", "--a", str(csv),
                    "--b", "pi-analytic:dim=6"]) == 0
        assert json.loads(capsys.readouterr().out)["exactness"] == "exact"

    def test_empirical_operand(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert run(["sample", "--in", "cube", "--n", "24", "--seed", "5",
                    "--out", str(csv)]) == 0
        grid = empirical_copula(load_sample(csv)).to_grid()
        assert run(["kernel", "--in", str(csv), "--t", "0.3", "--u", "0.5,0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(
            kernel_cdf(grid, 0.3, [0.5, 0.5]), abs=1e-15)
        assert run(["simplified", "--in", str(csv)]) == 0
        assert json.loads(capsys.readouterr().out)["simplified"] is True
        assert run(["jfun", "--a", str(csv), "--b", "cube"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] >= 1 / 16 - 1e-12


class TestPipelines:
    def test_sample_empirical_round_trip(self, tmp_path):
        csv = tmp_path / "s.csv"
        grid = tmp_path / "g.json"
        assert run(["sample", "--in", "cube", "--n", "24", "--seed", "5",
                    "--out", str(csv)]) == 0
        assert run(["empirical", "--in", str(csv), "--out", str(grid)]) == 0
        g = GridCopula.from_json(grid.read_text())
        assert g.resolutions == [24, 24, 24]

    def test_pvc_report(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert run(["pvc", "--in", "cube", "--report", str(rep)]) == 0
        capsys.readouterr()
        payload = json.loads(rep.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload["d_inf"]["value"] == 0.125

    def test_pvc_dvine_roundtrip(self, tmp_path, capsys):
        assert run(["pvc", "--in", "product-extend:base=cube,dim=4", "--dvine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        g = GridCopula(
            [np.asarray(b) for b in payload.get("breaks", [])],
            np.asarray(payload["masses"]).reshape([len(b) - 1 for b in payload["breaks"]]),
        ) if "breaks" in payload else GridCopula.from_json(json.dumps(payload))
        assert g.dim == 4

    def test_kernel_and_conditional(self, capsys):
        assert run(["kernel", "--in", "cube", "--t", "0.25", "--u", "0.5,0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 0.5
        assert run(["conditional", "--in", "cube", "--slab", "0"]) == 0
        surf = json.loads(capsys.readouterr().out)
        assert surf["values"][-1][-1] == 1.0

    def test_countermonotone_kernel(self, capsys):
        # given t, W puts all its mass at u = 1 - t = 0.7
        for u, value in (("0.8", 1.0), ("0.6", 0.0)):
            assert run(["kernel", "--in", "w", "--t", "0.3", "--u", u]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == value

    def test_ranks_descriptor_round_trip(self, tmp_path, capsys):
        csv, desc = tmp_path / "s100.csv", tmp_path / "e.json"
        assert run(["sample", "--in", "cube", "--n", "100", "--out", str(csv)]) == 0
        assert run(["empirical", "--in", str(csv), "--out", str(desc)]) == 0
        assert json.loads(desc.read_text())["family"] == "empirical"
        reports = []
        for operand in (desc, csv):
            assert run(["metric", "--name", "dinf", "--a", str(operand), "--b", "cube"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            del reports[-1]["elapsed_s"]
        assert reports[0] == reports[1]
        assert (reports[0]["exactness"], reports[0]["error"]) == ("exact", 0.0)

    def test_sample_to_stdout_reads_back(self, tmp_path, capsys):
        assert run(["sample", "--in", "cube", "--n", "5"]) == 0
        csv = tmp_path / "s.csv"
        csv.write_text(capsys.readouterr().out)
        assert np.array_equal(load_sample(csv), sample(cube_copula(), 5, 0))

    def test_sample_writes_the_same_bytes_to_stdout_and_to_a_file(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert run(["sample", "--in", "cube", "--n", "3", "--out", str(csv)]) == 0
        assert run(["sample", "--in", "cube", "--n", "3"]) == 0
        assert capsys.readouterr().out.encode() == csv.read_bytes()
        want = sample(cube_copula(), 3, 0)
        assert np.array_equal(load_sample(csv).view(np.int64), want.view(np.int64))

    def test_analytic_kernel_is_not_discretized(self, capsys):
        assert run(["kernel", "--in", "efgm", "--t", "0.3", "--u", "0.3,0.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.20016, abs=1e-15)

    def test_make_help_lists_every_family(self, capsys):
        assert run(["make", "--help"]) == 0
        # the help wraps the list at hyphens, so compare without whitespace
        listing = "|".join(":".join([name, ",".join(reads)]) if reads else name
                           for name, (_, reads) in FAMILIES.items())
        assert listing in "".join(capsys.readouterr().out.split())
        assert sorted(FAMILIES) == sorted([
            "pi", "pi-analytic", "m", "w", "cube", "rcube", "bstar", "bstarstar", "efgm",
            "efgm-seq", "shuffle-d1", "shuffle-d2", "shuffle-d3", "shuffle-d4", "example54",
            "product-extend"])

    def test_readme_lists_every_family_and_its_parameters(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {line.split("|")[1].strip(" `"): line.split("|")[2]
                for line in readme.splitlines() if line.startswith("| `")}
        for name, (_, reads) in FAMILIES.items():
            assert all(f"`{param}`" in rows[name] for param in reads), name
            assert reads or rows[name].strip() == "none", name

    def test_simplified_and_jfun(self, capsys):
        assert run(["simplified", "--in", "cube"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["simplified"] is False
        assert run(["jfun", "--a", "pi:res=2", "--b", "cube"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1 / 16, abs=1e-9)

    def test_convergence_lab_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert run(["convergence-lab", "--mode", "efgm-seq", "--max-m", "3",
                    "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("m,")
        assert len(lines) == 4
        # without --max-m the sequence runs to m = 6
        assert run(["convergence-lab", "--mode", "efgm-seq", "--format", "csv",
                    "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 7


class TestPvcCommand:
    def test_res_expands_to_every_axis(self, tmp_path):
        out = tmp_path / "psi.json"
        assert run(["pvc", "--in", "cube", "--res", "4", "--out", str(out)]) == 0
        assert GridCopula.from_json(out.read_text()).resolutions == [4, 4, 4]

    @pytest.mark.parametrize("order", [[], ["--order", "0,2,1"]], ids=["identity", "0,2,1"])
    def test_dvine_report_describes_the_image_written(self, tmp_path, order):
        C = verify_mod.random_copula_grid(np.random.default_rng(3), [3, 3, 3])
        src, out, rep = tmp_path / "c.json", tmp_path / "psi.json", tmp_path / "r.json"
        src.write_text(C.to_json())
        assert run(["pvc", "--in", str(src), "--dvine", *order, "--out", str(out),
                    "--report", str(rep)]) == 0
        value = json.loads(rep.read_text())["d_inf"]["value"]
        assert value == d_inf(C, GridCopula.from_json(out.read_text())).value
        if not order:
            # the ladder's image, not the one pvc3 makes (at 0.0195171)
            assert value == pytest.approx(0.0182215, abs=1e-7)

    @pytest.mark.parametrize("args", [
        ["--in", "cube"],
        ["--in", "cube", "--dvine"],
        ["--in", "product-extend:base=cube,dim=4", "--dvine"],
    ], ids=["pvc3", "dvine-3d", "dvine-4d"])
    def test_report_runs_the_operator_once(self, tmp_path, monkeypatch, args):
        real = {name: getattr(pvc_mod, name) for name in ("pvc3", "pvc_dvine")}
        calls = []

        def counted(name):
            def call(*a, **kw):
                calls.append(name)
                return real[name](*a, **kw)
            return call

        for module in (cli_mod, pvc_mod):
            for name in real:
                monkeypatch.setattr(module, name, counted(name))
        assert run(["pvc", *args, "--report", str(tmp_path / "r.json"),
                    "--out", str(tmp_path / "psi.json")]) == 0
        assert len(calls) == 1


class TestVerifyCommand:
    def test_single_case_pass(self, tmp_path, capsys):
        out = tmp_path / "case.json"
        code = run(["verify", "cube-worst-case", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert payload[0]["passed"] is True

    def test_composite_gap_is_reported_as_a_share_of_the_diameter(self, tmp_path, capsys):
        # the gap 3/16 over the d_inf diameter 2/3 of the 3-copulas
        out = tmp_path / "case.json"
        assert run(["verify", "composite-worst-case", "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["computed"]["diameter_share"] == 9 / 32

    def test_unknown_case_is_numerical_error(self, capsys):
        assert run(["verify", "no-such-case"]) == 3

    def test_failing_case_exit_code(self, tmp_path, capsys, monkeypatch):
        # every case passes, so one is made to fail: its d1 is moved off the
        # expected 1/16 by 1e-3; the case reports that and exit code 1 signals it
        real_d1 = verify_mod.d1

        def off_by_1e3(*args, **kwargs):
            rep = real_d1(*args, **kwargs)
            return dataclasses.replace(rep, value=rep.value + 1e-3)

        monkeypatch.setattr(verify_mod, "d1", off_by_1e3)
        out = tmp_path / "case.json"
        code = run(["verify", "cube-kernel-l1", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload[0]["passed"] is False
        assert payload[0]["computed"]["d1"] == pytest.approx(1 / 16 + 1e-3, abs=1e-9)

    def test_cube_kernel_l1_passes(self, tmp_path, capsys):
        out = tmp_path / "case.json"
        assert run(["verify", "cube-kernel-l1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["passed"] is True
        assert payload[0]["computed"] == {"d1": 1 / 16, "d1_error": 0.0}


# One invocation per JSON report the CLI writes, on cheap operands, with the
# $defs branch its payload belongs to.  The report goes to the file named by
# the given flag.  A sample no finer than the scan lattice takes the exact
# path, whose rows have the same keys as the certified scan's.
REPORT_COMMANDS = [
    ("metric_report", "--out", ["metric", "--name", "tv", "--a", "cube", "--b", "pi:res=2"]),
    ("verification_list", "--out", ["verify", "cube-worst-case"]),
    ("scalar_result", "--out", ["kernel", "--in", "cube", "--t", "0.25", "--u", "0.5,0.5"]),
    ("scalar_result", "--out", ["jfun", "--a", "pi:res=2", "--b", "cube"]),
    ("surface", "--out", ["conditional", "--in", "cube", "--slab", "0"]),
    ("surface", "--out", ["partial", "--in", "cube"]),
    ("simplified_result", "--out", ["simplified", "--in", "cube"]),
    ("pvc_summary", "--out", ["pvc", "--in", "efgm"]),
    ("pvc_report", "--report", ["pvc", "--in", "cube"]),
    ("pvc_report", "--report", ["pvc", "--in", "efgm"]),
    ("pvc_report", "--report", ["pvc", "--in", "product-extend:base=cube,dim=4", "--dvine"]),
    ("discontinuity_rows", "--out", ["discontinuity", "--n-list", "24"]),
    ("convergence_efgm_rows", "--out",
     ["convergence-lab", "--mode", "efgm-seq", "--max-m", "2"]),
    ("convergence_continuity_rows", "--out", ["convergence-lab", "--mode", "d1-continuity"]),
    ("nonopt_result", "--out", ["nonopt", "--n", "24"]),
    ("nowheredense_result", "--out", ["nowheredense"]),
]

# the pvc reports share one branch, so their ids also name the input
PVC_INPUTS = {"cube": "grid", "efgm": "analytic", "product-extend:base=cube,dim=4": "dvine"}


def matching_defs(payload):
    return [
        name for name in SCHEMA["$defs"]
        if jsonschema.Draft202012Validator(
            {"$ref": f"#/$defs/{name}", "$defs": SCHEMA["$defs"]}
        ).is_valid(payload)
    ]


class TestReportSchema:
    @pytest.mark.parametrize(
        "branch, flag, args", REPORT_COMMANDS,
        ids=[f"{args[0]}-{branch}" + (f"-{PVC_INPUTS[args[2]]}" if branch == "pvc_report" else "")
             for branch, _, args in REPORT_COMMANDS],
    )
    def test_each_report_matches_one_branch(self, tmp_path, branch, flag, args):
        out = tmp_path / "report.json"
        assert run(args + [flag, str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, SCHEMA)
        assert matching_defs(payload) == [branch]

    @pytest.mark.parametrize("payload", [{}, {"foo": 1}, [], [{}]],
                             ids=["empty-object", "unknown-key", "empty-list", "list-of-empty"])
    def test_root_rejects_non_reports(self, payload):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, SCHEMA)

    def test_operand_files_are_not_reports(self, tmp_path, cube):
        descriptor = tmp_path / "seq.json"
        assert run(["make", "efgm-seq:m=2,k=1", "--out", str(descriptor)]) == 0
        for payload in (json.loads(descriptor.read_text()), json.loads(cube.to_json())):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(payload, SCHEMA)
