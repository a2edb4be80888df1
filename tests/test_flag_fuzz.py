"""Fuzz tests of the command line: whatever values the numeric flags of
`upsample` and `evaluate` and the comma lists `--methods` and `--densities`
take, `main` returns exit code 0, 1 or 2 and prints no traceback.

Float flags get arbitrary tokens: NaN, +-inf, huge, subnormal, negative
and any float hypothesis draws.  `--model-size`, `--max-iters` and
`--runs` draw only up to 32, 200 and 2 to keep each example fast.  Larger
values are valid but cost time and memory; a model size whose tables exceed
the address space ends in `MemoryError`, which `main` answers with exit code
2 (`test_cli.py` checks that case).  `--root-seed` draws any int within
+-2**70.

The lists get arbitrary text: tokens that are neither numbers nor method
names (`abc`, `0x10`, a space), tokens Python reads as numbers in unusual
ways (`1_0`, `nan`), bare commas and any text hypothesis draws.
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudcolor.cli import main
from cloudcolor.evaluation import random_downsample, sphere_cloud
from cloudcolor.ply_io import write_ply

METHODS = ["fsmmr", "nn3", "idw3", "idw2", "lin2"]
FLOAT_FLAGS = ["--idw-power", "--block-size", "--sigma", "--rho", "--gamma", "--energy-threshold"]
FLOAT_TOKENS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "1e-9", "0.5", "1", "2", "4",
                     "1000", "1e308", "-1e308", "1e-300", "1e-320", "5e-324"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
FLAGS = st.tuples(
    st.dictionaries(st.sampled_from(FLOAT_FLAGS), FLOAT_TOKENS),
    st.one_of(st.none(), st.integers(-2, 32)),
    st.one_of(st.none(), st.integers(-2, 200)),
    st.one_of(st.none(), st.integers(-2 ** 70, 2 ** 70)),
).map(lambda drawn: [f"{flag}={value}" for flag, value in [
    *drawn[0].items(), ("--model-size", drawn[1]), ("--max-iters", drawn[2]), ("--root-seed", drawn[3]),
] if value is not None])

LIST_TEXT = st.one_of(
    st.sampled_from(["abc", "0x10", "1_0", "nan", " ", ",", "", "10,x", "-10", "1e-320", "fsmmr,FSMMR", "nn3,,idw2"]),
    st.text(),
)

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def plys(tmp_path_factory):
    root = tmp_path_factory.mktemp("flag_fuzz")
    cloud = sphere_cloud(n_points=16, radius=2.0, seed=5)
    (root / "mixed.ply").write_bytes(write_ply(random_downsample(cloud, 0.5, seed=1), include_roles=True))
    (root / "colored.ply").write_bytes(write_ply(cloud))
    return root


def run_main(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(method=st.sampled_from(METHODS), flags=FLAGS, ascii_out=st.booleans())
def test_upsample_flags_end_in_an_exit_code(plys, method, flags, ascii_out):
    argv = ["upsample", f"--method={method}", *flags, str(plys / "mixed.ply"), str(plys / "out.ply")]
    run_main(argv + ["--ascii"] * ascii_out)


@FUZZ
@given(methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=5, unique=True),
       flags=FLAGS, runs=st.integers(-1, 2))
def test_evaluate_flags_end_in_an_exit_code(plys, methods, flags, runs):
    run_main([
        "evaluate", f"--methods={','.join(methods)}", "--densities=30,70", f"--runs={runs}", *flags,
        str(plys / "colored.ply"), str(plys / "report.csv"),
    ])


@FUZZ
@given(methods=st.one_of(st.just("nn3,idw2"), LIST_TEXT), densities=st.one_of(st.just("30,70"), LIST_TEXT))
def test_evaluate_lists_end_in_an_exit_code(plys, methods, densities):
    run_main([
        "evaluate", f"--methods={methods}", f"--densities={densities}", "--runs=1",
        str(plys / "colored.ply"), str(plys / "report.csv"),
    ])
