"""The CLI's input contract: bad numbers and mutated files end in exit 1 or 2.

Every numeric option of ``synth``, ``weibull-fit``, ``hazard``,
``czm-identify`` and ``truss-opt --config`` is drawn from NaN, +-inf, 0, -1,
1e308 and one valid value.  ``main`` must return 0, 1 or 2, must not raise (the
suite turns RuntimeWarning into an error), and must print no nan or inf when
it returns 0.  ``run`` is left out because it spawns processes.
"""

import contextlib
import io
import json
import random
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fempost.cli import main
from fempost.czm import ForwardConfig, TSLParams, forward_model
from fempost.truss import example_problem

BAD_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308"]
JSON_BAD_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 1e308]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Input files shared by every example: Weibull fields and failure loads,
    a CZM target curve, a small results file and a scratch truss config."""
    root = tmp_path_factory.mktemp("cli_inputs")
    levels = np.linspace(0.0, 400.0, 81)
    (root / "fields.csv").write_text(
        "load_level,element_id,sigma1,volume\n"
        + "".join(f"{J},1,{800.0 + 10.0 * J},1.0\n" for J in levels)
    )
    n = 40
    u = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
    sw = 1000.0 + 1200.0 * (-np.log(1 - u)) ** 0.25
    (root / "samples.csv").write_text(
        "failure_load\n" + "".join(f"{(s - 800.0) / 10.0}\n" for s in sw)
    )
    curve = forward_model(TSLParams(237.0, 47.0), ForwardConfig())
    (root / "target.csv").write_text(
        "cmod,load\n" + "".join(f"{v},{p}\n" for v, p in zip(curve.cmod, curve.load))
    )
    assert run(["synth", "--nodes", "9", "--elements", "4", "-o", str(root / "small.fil")])[0] == 0
    return root


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def numeric(valid):
    return st.sampled_from([valid, *BAD_VALUES])


def options(**valid):
    """``--name=value`` pairs; the ``=`` form lets argparse take ``-inf`` as a value."""
    return st.tuples(*(
        numeric(v).map(lambda x, name=name: f"--{name.replace('_', '-')}={x}")
        for name, v in valid.items()
    )).map(list)


@st.composite
def cli_case(draw, root):
    command = draw(st.sampled_from(["synth", "weibull-fit", "hazard", "czm-identify", "truss-opt"]))
    if command == "synth":
        return ["synth", *draw(options(nodes="9", elements="4", seed="7"))]
    if command == "weibull-fit":
        return [
            "weibull-fit", "--fields", str(root / "fields.csv"),
            "--samples", str(root / "samples.csv"),
            *draw(options(v0="1.0", tol="1e-4", max_iter="100")),
        ]
    if command == "hazard":
        return [
            "hazard", "--fields", str(root / "fields.csv"),
            *draw(options(level="400.0", sigma_th="1000", m="4", sigma_u="1200", v0="1.0")),
        ]
    if command == "czm-identify":
        # argparse reads a bare "-inf" after --box as an option and exits 1;
        # tests/test_czm.py puts -inf in each corner through the library
        box = [draw(numeric(v)) for v in ("100", "300", "20", "100")]
        return [
            "czm-identify", "--target", str(root / "target.csv"), "--box", *box,
            *draw(options(tol="0.01")),
        ]
    cfg = {
        name: draw(st.sampled_from([value, *JSON_BAD_VALUES]))
        for name, value in asdict(example_problem()).items()
    }
    path = root / "truss.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON literals
    return ["truss-opt", "--config", str(path)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_options_exit_cleanly(inputs, data):
    argv = data.draw(cli_case(inputs))
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), argv


@pytest.mark.parametrize("option", ["--nodes", "--elements"])
def test_synth_negative_count_exits_2(option):
    code, _, err = run(["synth", option, "-1"])
    assert code == 2
    assert "must be non-negative" in err


def test_synth_zero_counts_give_empty_file(tmp_path):
    fil = tmp_path / "empty.fil"
    assert run(["synth", "--nodes", "0", "--elements", "0", "-o", str(fil)])[0] == 0
    assert fil.read_text() == ""


@pytest.mark.parametrize(
    "box", [["300", "100", "20", "100"], ["100", "300", "100", "20"], ["100", "100", "20", "100"]],
    ids=["tc-reversed", "gc-reversed", "tc-empty"],
)
def test_box_must_increase(inputs, box):
    code, out, err = run(["czm-identify", "--target", str(inputs / "target.csv"), "--box", *box])
    assert code == 2
    assert out == ""
    assert "box bounds must increase" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hazard", "--fields", "{root}/fields.csv", "--sigma-th", "1000", "--m", "1e308",
         "--sigma-u", "1200", "--v0", "1.0"],
        ["czm-identify", "--target", "{root}/target.csv", "--box", "100", "1e308", "20", "100"],
        ["truss-opt", "--config", "{root}/rho.json"],
    ],
    ids=["hazard-m", "czm-identify-box", "truss-opt-rho"],
)
def test_overflow_exits_2(inputs, argv):
    (inputs / "rho.json").write_text(json.dumps({**asdict(example_problem()), "rho": 1e308}))
    code, out, err = run([arg.format(root=inputs) for arg in argv])
    assert code == 2, err
    assert out == ""
    assert "overflow" in err or "weight must be finite" in err


def test_weibull_fit_huge_v0_exits_2(inputs):
    # every sigma_w is about 1e-151, so sigma_u's interval (1e-6, 10 max sigma_w)
    # is empty; the fit refuses it before any step
    code, out, err = run([
        "weibull-fit", "--fields", str(inputs / "fields.csv"),
        "--samples", str(inputs / "samples.csv"), "--v0", "1e308",
    ])
    assert code == 2, err
    assert out == ""
    assert "empty sigma_u interval" in err


# Keys the mutated files are extracted with: nodes, elements, displacements,
# stresses, element headers and a key no extractor knows.
FUZZ_KEYS = ["1901", "1900", "101", "11", "1", "4242"]
FUZZ_BYTES = b"*ID ES0123456789+-.\n" + bytes(range(256))


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three seeded byte replacements, insertions or deletions."""
    buf = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(buf))
        op = rng.randrange(3)
        if op == 0:
            buf[pos] = rng.choice(FUZZ_BYTES)
        elif op == 1:
            buf.insert(pos, rng.choice(FUZZ_BYTES))
        else:
            del buf[pos]
    return bytes(buf)


def test_mutated_files_exit_cleanly(inputs, tmp_path):
    original = (inputs / "small.fil").read_bytes()
    rng = random.Random(2024)
    mutant = tmp_path / "mutant.fil"
    commands = [["decode"], ["decode", "--lenient"], *(["extract", "--key", k] for k in FUZZ_KEYS)]
    codes = set()
    with warnings.catch_warnings():
        # a duplicated node or element id is reported by a UserWarning
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(300):
            mutant.write_bytes(mutate(original, rng))
            for command in commands:
                code, _, _ = run([command[0], str(mutant), *command[1:]])
                assert code in (0, 2), (command, mutant.read_bytes())
                codes.add(code)
    assert codes == {0, 2}
