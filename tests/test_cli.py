from dataclasses import replace

import pytest

from cloudcolor.cli import main
from cloudcolor.core import Role
from cloudcolor.evaluation import sphere_cloud, random_downsample
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
    def test_happy_path_fully_colored_output(self, mixed_ply, tmp_path):
        out = tmp_path / "out.ply"
        code = main(["upsample", "--method", "fsmmr", "--block-size", "4", str(mixed_ply), str(out)])
        assert code == 0
        cloud = read_ply(out.read_bytes())
        assert cloud.fully_colored()

    def test_unknown_method_is_usage_style_error(self, mixed_ply, tmp_path, capsys):
        code = main(["upsample", "--method", "spline", str(mixed_ply), str(tmp_path / "o.ply")])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, mixed_ply, tmp_path, capsys):
        code = main(["upsample", "--frobnicate", str(mixed_ply), str(tmp_path / "o.ply")])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path):
        code = main(["upsample", str(tmp_path / "nope.ply"), str(tmp_path / "o.ply")])
        assert code == 2

    def test_lin2_holes_filled(self, mixed_ply, tmp_path):
        out = tmp_path / "out.ply"
        code = main(["upsample", "--method", "lin2", str(mixed_ply), str(out)])
        assert code == 0
        assert read_ply(out.read_bytes()).fully_colored()

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

    def test_csv_is_lf_and_utf8(self, colored_ply, tmp_path):
        out = tmp_path / "report.csv"
        main(["evaluate", "--densities", "50", "--runs", "1", "--methods", "nn3", str(colored_ply), str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")


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

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command, method_flag", [
        ("upsample", "--method=fsmmr"), ("upsample", "--method=nn3"), ("evaluate", "--methods=nn3"),
    ])
    def test_threads_below_one_is_data_error(self, command, method_flag, value, mixed_ply, colored_ply, tmp_path, capsys):
        source = colored_ply if command == "evaluate" else mixed_ply
        code = main([command, method_flag, f"--threads={value}", str(source), str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "threads must be >= 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


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


def test_help_lists_pinned_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["upsample", "--help"])
    text = capsys.readouterr().out
    for needle in ("0.8", "0.7", "0.5", "100", "16", "4.0"):
        assert needle in text
