import os
import subprocess
import sys

import pytest

from cloudcolor import parallel, pipeline
from cloudcolor.baselines import InterpolatorKind
from cloudcolor.cli import _experiment_spec, _upsample_config, build_parser, main
from cloudcolor.evaluation import ExperimentSpec, random_downsample, run_experiment, sphere_cloud
from cloudcolor.pipeline import UpsampleConfig, upsample_cloud
from cloudcolor.ply_io import PlyFormat, read_ply, write_ply

from conftest import random_cloud


@pytest.fixture
def mixed_ply(tmp_path):
    cloud = random_downsample(sphere_cloud(n_points=200, seed=1), 0.5, seed=2)
    path = tmp_path / "mixed.ply"
    path.write_bytes(write_ply(cloud, include_roles=True))
    return path


@pytest.fixture
def colored_ply(tmp_path):
    path = tmp_path / "colored.ply"
    path.write_bytes(write_ply(sphere_cloud(n_points=150, seed=3)))
    return path


class TestUpsample:
    def test_nn3_partitions_nothing_and_forks_nothing(self, mixed_ply, tmp_path, monkeypatch, worker_pids):
        # NN3 works on the whole cloud: it has no block to ride with
        calls = []
        monkeypatch.setattr(pipeline, "partition_into_blocks", lambda *args: calls.append(args))
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 3)
        assert main(["upsample", "--method", "nn3", str(mixed_ply), str(tmp_path / "out.ply")]) == 0
        assert calls == [] and worker_pids() == []

    def test_happy_path_fully_colored_output(self, mixed_ply, tmp_path):
        out = tmp_path / "out.ply"
        code = main(["upsample", "--method", "fsmmr", "--block-size", "4", str(mixed_ply), str(out)])
        assert code == 0
        cloud = read_ply(out.read_bytes())
        assert cloud.colored.all()

    def test_unknown_method_is_usage_style_error(self, mixed_ply, tmp_path, capsys):
        code = main(["upsample", "--method", "spline", str(mixed_ply), str(tmp_path / "o.ply")])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, mixed_ply, tmp_path, capsys):
        code = main(["upsample", "--frobnicate", str(mixed_ply), str(tmp_path / "o.ply")])
        assert code == 1
        assert "usage: cloudcolor upsample" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path):
        code = main(["upsample", str(tmp_path / "nope.ply"), str(tmp_path / "o.ply")])
        assert code == 2

    @pytest.mark.parametrize("line", [b"format binary_big_endian 1.0", b"format ascii 2.0"])
    def test_unsupported_format_line_exit_2(self, mixed_ply, tmp_path, capsys, line):
        source = tmp_path / "in.ply"
        source.write_bytes(mixed_ply.read_bytes().replace(b"format binary_little_endian 1.0", line, 1))
        code = main(["upsample", str(source), str(tmp_path / "o.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unsupported format line '{line.decode()}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.ply").exists()

    def test_lin2_holes_filled(self, mixed_ply, tmp_path):
        out = tmp_path / "out.ply"
        code = main(["upsample", "--method", "lin2", str(mixed_ply), str(out)])
        assert code == 0
        assert read_ply(out.read_bytes()).colored.all()

    def test_fill_line_counts_the_holes(self, mixed_ply, tmp_path, capsys):
        holes = (~upsample_cloud(read_ply(mixed_ply.read_bytes()), InterpolatorKind.LIN2_DELAUNAY).colored).sum()
        assert holes > 0
        assert main(["upsample", "--method", "lin2", str(mixed_ply), str(tmp_path / "lin2.ply")]) == 0
        assert f"{holes} points left uncolored by lin2; filled from nearest originals\n" in capsys.readouterr().err
        assert main(["upsample", "--method", "fsmmr", str(mixed_ply), str(tmp_path / "fsmmr.ply")]) == 0
        assert "left uncolored" not in capsys.readouterr().err

    def test_identical_invocations_byte_identical(self, mixed_ply, tmp_path):
        out1, out2 = tmp_path / "a.ply", tmp_path / "b.ply"
        assert main(["upsample", str(mixed_ply), str(out1)]) == 0
        assert main(["upsample", str(mixed_ply), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEvaluate:
    def test_record_count(self, colored_ply, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "evaluate", "--densities", "10,50,80", "--runs", "3", "--seed", "7",
            "--methods", "nn3,idw3", str(colored_ply), str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 2

    @pytest.mark.parametrize("token, density", [("1", "0.01"), ("2", "0.02"), ("0.5", "0.005"), ("100", "1")])
    def test_densities_are_percentages(self, token, density, colored_ply, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--densities", token, "--runs", "1", "--methods", "nn3", str(colored_ply), str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == [density]
        # 100% leaves nothing to reconstruct, so only that row is skipped
        assert (rows[0][-1] == "skipped") == (token == "100")

    @pytest.mark.parametrize("flag, value", [
        ("--methods", ","), ("--densities", ","), ("--methods", "nn3,nn3"),
        ("--densities", "10,10"), ("--densities", "10,10.00000001"),
    ])
    def test_empty_or_repeated_sweep_list_is_data_error(self, flag, value, colored_ply, tmp_path, capsys):
        out = tmp_path / "report.csv"
        args = {"--methods": "nn3", "--densities": "50", flag: value}
        code = main(["evaluate", *(f"{k}={v}" for k, v in args.items()), "--runs", "1", str(colored_ply), str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "10,x", "0x10", " "])
    def test_density_that_is_not_a_number_is_data_error(self, value, colored_ply, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["evaluate", f"--densities={value}", "--methods=nn3", str(colored_ply), str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_cloud_with_points_to_reconstruct_is_data_error(self, mixed_ply, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--methods=nn3", str(mixed_ply), str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: the experiment needs a fully colored reference cloud\n"
        assert not out.exists()

    def test_default_sweep_is_the_library_default(self, colored_ply, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["evaluate", str(colored_ply), str(out)]) == 0
        expected = run_experiment(read_ply(colored_ply.read_bytes()), ExperimentSpec()).to_csv()
        assert out.read_bytes() == expected.encode("utf-8")

    def test_timing_changes_only_wall_time(self, colored_ply, tmp_path):
        untimed, timed = tmp_path / "untimed.csv", tmp_path / "timed.csv"
        flags = ["evaluate", "--densities", "10,50", "--runs", "1", "--methods", "fsmmr,nn3,lin2", str(colored_ply)]
        assert main([*flags, str(untimed)]) == 0
        assert main([*flags, "--timing", str(timed)]) == 0
        header, *untimed_rows = [line.split(",") for line in untimed.read_text().splitlines()]
        timed_header, *timed_rows = [line.split(",") for line in timed.read_text().splitlines()]
        assert timed_header == header and len(timed_rows) == len(untimed_rows) == 6
        wall = header.index("wall_time_ms")
        for a, b in zip(untimed_rows, timed_rows):
            assert a[:wall] + a[wall + 1:] == b[:wall] + b[wall + 1:]
            assert a[wall] == "0" and b[wall].isdigit()  # a non-negative int

    def test_csv_is_lf_and_utf8(self, colored_ply, tmp_path):
        out = tmp_path / "report.csv"
        main(["evaluate", "--densities", "50", "--runs", "1", "--methods", "nn3", str(colored_ply), str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")


def double_x_ply(tmp_path, rows, double_axes="x"):
    """An ASCII PLY of `rows` whose x (or each axis in `double_axes`) is a
    double: beyond float32 range is a read error under float, and a double
    keeps 1e-160 apart from 0."""
    axes = "".join(f"property {'double' if a in double_axes else 'float'} {a}\n" for a in "xyz")
    header = "ply\nformat ascii 1.0\nelement vertex {}\n" + axes + \
        "property uchar red\nproperty uchar green\nproperty uchar blue\nproperty uchar original\nend_header\n"
    path = tmp_path / "in.ply"
    path.write_text(header.format(len(rows)) + "".join(row + "\n" for row in rows))
    return path


class TestFlagValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
    @pytest.mark.parametrize("command, method_flag", [
        ("upsample", "--method=fsmmr"), ("upsample", "--method=nn3"),
        ("evaluate", "--methods=nn3"), ("flatten", "--block=0"),
    ])
    def test_bad_block_size_is_data_error(self, command, method_flag, value, mixed_ply, colored_ply, tmp_path, capsys):
        source = colored_ply if command == "evaluate" else mixed_ply
        code = main([command, method_flag, f"--block-size={value}", str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "block_size must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
    @pytest.mark.parametrize("command, method_flag", [
        ("upsample", "--method=idw3"), ("upsample", "--method=idw2"), ("upsample", "--method=nn3"),
        ("evaluate", "--methods=idw3"),
    ])
    def test_bad_idw_power_is_data_error(self, command, method_flag, value, mixed_ply, colored_ply, tmp_path, capsys):
        source = colored_ply if command == "evaluate" else mixed_ply
        code = main([command, method_flag, f"--idw-power={value}", str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "idw power must be positive and finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, method_flag", [("upsample", "--method=fsmmr"), ("evaluate", "--methods=fsmmr")])
    def test_nan_energy_threshold_is_data_error(self, command, method_flag, mixed_ply, colored_ply, tmp_path, capsys):
        source = colored_ply if command == "evaluate" else mixed_ply
        code = main([command, method_flag, "--energy-threshold=nan", str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "energy_threshold must be non-negative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["idw3", "idw2"])
    def test_huge_idw_power_takes_nearest_colors(self, method, mixed_ply, tmp_path, capsys):
        out = tmp_path / "out.ply"
        code = main(["upsample", f"--method={method}", "--idw-power=1000", str(mixed_ply), str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert read_ply(out.read_bytes()).colored.all()

    @pytest.mark.parametrize("method", ["idw3", "idw2"])
    def test_idw_query_next_to_an_original_takes_its_color(self, method, tmp_path, capsys):
        # the squared distance 1e-320 is subnormal, so d^-2 overflows to inf
        source = double_x_ply(tmp_path, ["0 0 0 10 20 30 1", "1 0 0 200 100 50 1", "1e-160 0 0 0 0 0 0"])
        out = tmp_path / "out.ply"
        code = main(["upsample", "--ascii", f"--method={method}", str(source), str(out)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert read_ply(out.read_bytes()).colors.tolist()[2] == [10, 20, 30]

    @pytest.mark.parametrize("command, method_flag", [("upsample", "--method=fsmmr"), ("evaluate", "--methods=fsmmr")])
    def test_memory_error_is_data_error(self, command, method_flag, mixed_ply, colored_ply, tmp_path, capsys):
        # 10^16 candidate frequencies (71 PiB) exceed any address space: numpy
        # refuses them without allocating
        source = colored_ply if command == "evaluate" else mixed_ply
        code = main([command, method_flag, "--model-size", "100000000", "--rho", "0.9999999",
                     str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["upsample", "--method=spline"], "unknown method"),
        (["upsample", "--block-size=0"], "block_size must be positive"),
        (["upsample", "--sigma=2"], "sigma must lie in (0, 1)"),
        (["evaluate", "--densities=abc"], "cannot read 'abc'"),
        (["evaluate", "--methods=spline"], "unknown method"),
        (["evaluate", "--runs=0"], "runs must be >= 1"),
        (["flatten", "--block-size=nan"], "block_size must be positive"),
        # a window corner lies 2089.5 from the centre at model size 2956, and 0.7 ** 2089.5 underflows to 0
        (["upsample", "--model-size=2956"], "model_size 2956 give a window corner a spatial weight of 0"),
        (["evaluate", "--model-size=100000"], "model_size 100000 give a window corner a spatial weight of 0"),
        # 2^30 is the least side whose 2^60 candidates numpy cannot hold as 8-byte values
        (["upsample", "--model-size=1073741824", "--rho=0.9999999999999999"], "model_size must lie in [1, 1073741823]"),
        (["evaluate", "--model-size=1073741824", "--rho=0.9999999999999999"], "model_size must lie in [1, 1073741823]"),
        (["evaluate", "--seed=-1"], "base_seed must lie in [0, 2**64)"),
    ])
    def test_flags_are_checked_before_the_input_is_read(self, flags, message, tmp_path, capsys):
        code = main([*flags, str(tmp_path / "missing.ply"), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_threads_flag_is_usage_error(self, mixed_ply, tmp_path, capsys):
        code = main(["upsample", "--threads", "2", str(mixed_ply), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestOutOfRangeCoordinates:
    def test_coordinate_beyond_float32_in_binary_output(self, tmp_path, capsys):
        source = double_x_ply(tmp_path, ["0 0 0 10 20 30 1", "1e39 0 0 0 0 0 0"])
        code = main(["upsample", "--method", "nn3", str(source), str(tmp_path / "out.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "float32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.ply").exists()

    def test_coordinate_beyond_float32_in_ascii_output(self, tmp_path, capsys):
        source = double_x_ply(tmp_path, ["0 0 0 10 20 30 1", "1e39 0 0 0 0 0 0"])
        code = main(["upsample", "--ascii", "--method", "nn3", str(source), str(tmp_path / "out.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "float32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.ply").exists()

    @pytest.mark.parametrize("method", ["fsmmr", "idw2", "lin2"])
    def test_cell_index_overflow(self, method, tmp_path, capsys):
        source = double_x_ply(tmp_path, ["-1.7e308 0 0 10 20 30 1", "1.7e308 0 0 0 0 0 0"])
        code = main(["upsample", "--ascii", "--method", method, str(source), str(tmp_path / "out.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "too many cells" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.ply").exists()

    # every pairwise dx or dy is at least 1e199, so each fold step overflows
    WIDE = ["0 0 0 10 20 30 1", "1e200 0 0 200 100 50 1", "0 3e200 0 0 0 255 1", "1e199 1e199 0 0 0 0 {}"]

    @pytest.mark.parametrize("command", [["upsample", "--method=fsmmr"], ["upsample", "--method=idw2"], ["flatten"]])
    def test_block_too_wide_to_flatten(self, command, tmp_path, capsys):
        source = double_x_ply(tmp_path, [row.format(0) for row in self.WIDE], double_axes="xyz")
        code = main([*command, "--block-size=1e300", str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "too wide to flatten" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_records_a_block_too_wide_to_flatten(self, tmp_path):
        source = double_x_ply(tmp_path, [row.format(1) for row in self.WIDE], double_axes="xyz")
        out = tmp_path / "report.csv"
        args = ["--methods=fsmmr,idw2", "--densities=50", "--runs=1", "--block-size=1e300"]
        assert main(["evaluate", *args, str(source), str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith("error:InvalidInput") for row in rows)


class TestFlatten:
    def test_dump_csv(self, mixed_ply, tmp_path):
        out = tmp_path / "flat.csv"
        code = main(["flatten", "--block", "0", str(mixed_ply), str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "point_id,role,x_flat,y_flat"
        assert len(lines) > 1

    def test_block_out_of_range(self, mixed_ply, tmp_path):
        code = main(["flatten", "--block", "99999", str(mixed_ply), str(tmp_path / "f.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag", [
        "--model-size=16", "--sigma=5", "--rho=0.7", "--gamma=0.5", "--max-iters=0", "--energy-threshold=0",
    ])
    def test_model_flags_are_usage_errors(self, flag, mixed_ply, tmp_path, capsys):
        # flatten fits no model, so it takes none of the model's flags
        code = main(["flatten", flag, str(mixed_ply), str(tmp_path / "f.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "unrecognized arguments" in err and "usage: cloudcolor flatten" in err
        assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("argv", [
    ["upsample", "--root", "random"], ["upsample", "--root", "3"], ["upsample", "--seed", "5"],
    ["evaluate", "--root", "random"], ["evaluate", "--root", "deterministic"],
    ["flatten", "--root", "random"], ["flatten", "--seed", "5"], ["flatten", "--root-seed", "random"],
])
def test_root_and_seed_spellings_are_usage_errors(argv, mixed_ply, tmp_path, capsys):
    # the root seed has one flag, --root-seed, which no prefix abbreviates;
    # --seed seeds only the density splits of evaluate
    code = main([*argv, str(mixed_ply), str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"usage: cloudcolor {argv[0]}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["upsample", "evaluate", "flatten"])
def test_root_seed_sets_the_root_seed_alone(command):
    seeded, default = (vars(build_parser().parse_args([command, *flags, "in", "out"])) for flags in (["--root-seed", "5"], []))
    assert {name for name in default if seeded[name] != default[name]} == {"root_seed"}


@pytest.mark.parametrize("flag, spec", [
    ("--seed", ExperimentSpec(base_seed=5)), ("--root-seed", ExperimentSpec(upsample=UpsampleConfig(root_seed=5))),
])
def test_evaluate_seeds_the_splits_and_the_roots_apart(flag, spec):
    assert _experiment_spec(build_parser().parse_args(["evaluate", flag, "5", "in", "out"])) == spec


@pytest.mark.parametrize("command", ["upsample", "evaluate"])
def test_flag_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "in", "out"])
    assert _upsample_config(args) == UpsampleConfig()
    if command == "evaluate":  # methods, densities, runs and seed as well
        assert _experiment_spec(args) == ExperimentSpec()


def test_help_lists_pinned_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["upsample", "--help"])
    text = capsys.readouterr().out
    for needle in ("0.8", "0.7", "0.5", "100", "16", "4.0"):
        assert needle in text


# hand-sized clouds: two originals, one red at x = 0 and one blue at x = 1, and
# a point to reconstruct at x = 0.25; the tie cloud repeats the blue original
# and lifts the point to z = 0.5
TINY = ["0 0 0 255 0 0 1", "1 0 0 0 0 255 1", "0.25 0 0 0 0 0 0"]
TIE = ["0 0 0 255 0 0 1", "1 0 0 0 0 255 1", "1 0 0 0 0 255 1", "0.25 0 0.5 0 0 0 0"]
UPSAMPLE = ["upsample", "--ascii", "--method"]


@pytest.mark.parametrize("rows, comment, argv, line", [
    (TINY, False, [*UPSAMPLE, "fsmmr"], "0.25 0 0 214 0 41"),
    (TINY, False, [*UPSAMPLE, "nn3"], "0.25 0 0 255 0 0"),
    (TINY, False, [*UPSAMPLE, "idw3"], "0.25 0 0 230 0 25"),
    # two originals cannot be triangulated: the hole is filled from the nearest original
    (TINY, False, [*UPSAMPLE, "lin2"], "0.25 0 0 255 0 0"),
    (TINY, False, ["flatten"], "2,reconstruct,0.25,0.0"),
    # the header ends at the first line that reads exactly end_header: a comment may hold the word
    (TINY, True, [*UPSAMPLE, "fsmmr"], "0.25 0 0 214 0 41"),
    # the repeated original ties two tree edges: the Prim keys this block by exact ranks
    (TIE, False, ["flatten"], "3,reconstruct,0.5590169943749475,0.5"),
    (TIE, False, [*UPSAMPLE, "fsmmr"], "0.25 0 0.5 127 0 128"),
], ids=["tiny-fsmmr", "tiny-nn3", "tiny-idw3", "tiny-lin2", "tiny-flatten", "comment-fsmmr", "tie-flatten", "tie-fsmmr"])
def test_hand_sized_cloud_gives_its_pinned_line(rows, comment, argv, line, tmp_path):
    source = double_x_ply(tmp_path, rows, double_axes="")
    if comment:
        source.write_text(source.read_text().replace("\nelement", "\ncomment written before end_header was parsed\nelement"))
    out = tmp_path / "out"
    assert main([*argv, str(source), str(out)]) == 0
    assert line in out.read_text().splitlines()


# runs `cloudcolor` with argv[1:] on one of this process's cores
ONE_CORE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cloudcolor.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_core_sweep_writes_the_all_core_bytes(tmp_path):
    # the sweep's jobs run on every usable core: confined to one, it writes the same report
    source, one_core, all_cores = tmp_path / "sphere.ply", tmp_path / "one.csv", tmp_path / "all.csv"
    source.write_bytes(write_ply(sphere_cloud(300)))
    argv = ["evaluate", "--root-seed", "0", "--runs", "2", str(source)]
    subprocess.run([sys.executable, "-c", ONE_CORE, *argv, str(one_core)], timeout=300, check=True)
    assert main([*argv, str(all_cores)]) == 0
    assert one_core.read_bytes() == all_cores.read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("method", ["fsmmr", "idw2", "lin2"])
def test_one_core_upsample_writes_the_all_core_bytes(method, tmp_path):
    # the blocks of a 2D method run on every usable core: confined to one, it writes the same cloud
    source, one_core, all_cores = tmp_path / "mixed.ply", tmp_path / "one.ply", tmp_path / "all.ply"
    source.write_bytes(write_ply(random_downsample(sphere_cloud(400, seed=1), 0.1, seed=2), include_roles=True))
    argv = ["upsample", "--method", method, "--root-seed", "0", str(source)]
    subprocess.run([sys.executable, "-c", ONE_CORE, *argv, str(one_core)], timeout=300, check=True)
    assert main([*argv, str(all_cores)]) == 0
    assert one_core.read_bytes() == all_cores.read_bytes()
