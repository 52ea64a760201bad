"""Shared helpers: randomized stream generation and a stub solver script."""

import random
import string
import textwrap

import pytest

from fempost.filcodec import LogicalRecord, decode_item, encode_item

PRINTABLE = string.ascii_uppercase + string.digits + " ._-"


def canonical_float(x: float) -> float:
    """Round *x* to the value its 22-character encoding decodes back to.

    The float encoding carries 15 significant digits (14 in the rare
    sign+3-digit-exponent case), so arbitrary doubles are canonicalized
    before being placed in fuzz records: round-trips are then exact.
    """
    return decode_item(encode_item(x), 0)[0]


def random_item(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        magnitude = 10 ** rng.randrange(1, 12)
        return rng.randrange(-magnitude, magnitude)
    if kind == 1:
        mantissa = rng.uniform(-1.0, 1.0)
        exponent = rng.randrange(-30, 31)
        return canonical_float(mantissa * 10.0**exponent)
    return "".join(rng.choice(PRINTABLE) for _ in range(8))


def random_record(rng: random.Random, max_attrs: int = 50) -> LogicalRecord:
    n = rng.randrange(0, max_attrs + 1)
    return LogicalRecord(
        key=rng.randrange(0, 10000),
        attributes=tuple(random_item(rng) for _ in range(n)),
    )


def random_stream(rng: random.Random, max_records: int = 10, max_attrs: int = 50):
    return [random_record(rng, max_attrs) for _ in range(rng.randrange(0, max_records + 1))]


#: Displacement rows every stub run plants in its results file.
STUB_ROWS = [(1, (0.0, -0.0508)), (2, (0.001, -0.002))]

STUB_SOLVER = textwrap.dedent(
    """\
    import os
    import pathlib
    import sys
    import time

    job = sys.argv[1]
    mode = sys.argv[2] if len(sys.argv) > 2 else "ok"
    pathlib.Path(job + ".pid").write_text(str(os.getpid()))
    lck = pathlib.Path(job + ".lck")
    lck.touch()
    if mode == "hang":
        time.sleep(600)
    time.sleep(0.2)
    if mode == "fail":
        print("solver blew up", file=sys.stderr)
        lck.unlink()
        sys.exit(3)
    pathlib.Path(job + ".fil").write_text({fil_text!r})
    pathlib.Path(job + ".prt").write_text("printout")
    lck.unlink()
    """
)


@pytest.fixture
def stub_solver(tmp_path):
    """Write a fast-starting stub solver script into tmp_path.

    The planted results text is pre-encoded here so the stub itself needs no
    imports; run_job's initial wait then comfortably covers its startup.
    """
    from fempost.filcodec import encode_stream
    from fempost.records import nodal_field_records

    fil_text = encode_stream(nodal_field_records(101, STUB_ROWS)) + "\n"
    script = tmp_path / "stub_solver.py"
    script.write_text(STUB_SOLVER.format(fil_text=fil_text))
    return script
