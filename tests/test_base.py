"""The shared error base, numeric input check, CSV reader and collector pause."""

import gc
import importlib
import inspect
import math
import pkgutil
import random

import numpy as np
import pytest

import fempost
from fempost import cli, czm, filcodec, jobs, records, truss, weibull
from conftest import random_stream
from fempost._base import check_number, gc_paused, read_csv


MODULES = [
    importlib.import_module(f"fempost.{info.name}")
    for info in pkgutil.iter_modules(fempost.__path__)
]


class TestErrorHierarchy:
    def test_every_exported_exception_is_a_fempost_error(self):
        exported = [getattr(m, name) for m in MODULES for name in getattr(m, "__all__", ())]
        errors = [e for e in exported if isinstance(e, type) and issubclass(e, Exception)]
        assert {fempost.NoConvergence, fempost.filcodec.FilCodecError, fempost.jobs.JobError} <= set(errors)
        for error in errors:
            assert issubclass(error, fempost.FempostError), error

    def test_one_no_convergence(self):
        assert weibull.NoConvergence is czm.NoConvergence
        assert not hasattr(truss, "NoConvergence")
        assert weibull.NoConvergence is fempost.NoConvergence
        assert issubclass(fempost.NoConvergence, RuntimeError)

    def test_exactly_five_exception_classes(self):
        defined = {
            cls
            for m in MODULES
            for _, cls in inspect.getmembers(m, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == m.__name__
        }
        assert defined == {
            fempost.FempostError,
            fempost.NoConvergence,
            filcodec.FilCodecError,
            records.MalformedRecord,
            jobs.JobError,
        }

    def test_cli_catches_three_bases(self):
        assert cli.DOMAIN_ERRORS == (
            fempost.FempostError, ValueError, OSError, FloatingPointError
        )


class TestCheckNumber:
    @pytest.mark.parametrize("value", [1, 2.5, np.int64(3), np.float32(0.5), 1e308])
    def test_positive_finite_passes(self, value):
        check_number("x", value)

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, -math.inf])
    def test_non_positive_rejected(self, value):
        with pytest.raises(ValueError, match="^x must be positive, got"):
            check_number("x", value)

    @pytest.mark.parametrize("value", [math.nan, -1e-300, -math.inf])
    def test_negative_rejected_where_zero_allowed(self, value):
        check_number("x", 0.0, zero=True)
        with pytest.raises(ValueError, match="^x must be non-negative, got"):
            check_number("x", value, zero=True)

    def test_infinity_only_where_asked(self):
        check_number("x", math.inf, inf=True)
        with pytest.raises(ValueError, match="^x must be finite$"):
            check_number("x", math.inf)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1.0", None, np.array(1.0), 1j])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ValueError, match="^x must be a number, got"):
            check_number("x", value)


class TestReadCsv:
    def test_rows_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2.5\n\n3,-4e2\n")
        assert read_csv(path).tolist() == [[1.0, 2.5], [3.0, -400.0]]

    def test_usecols_ignores_other_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("load,note\n1.5,first\n2.5,second\n")
        assert read_csv(path, usecols=0).tolist() == [[1.5], [2.5]]

    @pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n\n"])
    def test_no_data_rows_rejected(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    @pytest.mark.parametrize("number", ["1_0", "١٢", "1.5_0"])
    def test_non_ascii_number_forms_rejected(self, tmp_path, number):
        # Python's float() accepts these forms; the CSV reader must not
        float(number)
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n{number},1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_csv(path)


#: Code object every gc_paused wrapper runs.
PAUSED_CODE = gc_paused(lambda: None).__code__

#: The functions that build record lists or tables, each run paused.
PAUSED = {
    "fempost.filcodec.decode_stream",
    "fempost.records.extract_nodes",
    "fempost.records.extract_elements",
    "fempost.records.extract_nodal_field",
    "fempost.records.extract_stresses",
    "fempost.records.node_records",
    "fempost.records.element_records",
    "fempost.records.nodal_field_records",
    "fempost.records.stress_records",
}


def paused_functions():
    return {
        f"{m.__name__}.{name}": func
        for m in MODULES
        for name, func in inspect.getmembers(m, inspect.isfunction)
        if func.__code__ is PAUSED_CODE and func.__module__ == m.__name__
    }


def synth_stream(tmp_path, capsys):
    path = tmp_path / "mesh.fil"
    assert cli.main(["synth", "--nodes", "30", "--elements", "20", "-o", str(path)]) == 0
    capsys.readouterr()
    return filcodec.decode_stream(filcodec.fil_to_string(path))


class Probe:
    """An iterable over *items* that records whether the collector was
    enabled when iteration began."""

    def __init__(self, items):
        self.items, self.enabled = items, None

    def __iter__(self):
        self.enabled = gc.isenabled()
        return iter(self.items)


#: A call of each paused records function on a probed iterable.
PROBED_CALLS = {
    "extract_nodes": lambda probe: records.extract_nodes(probe),
    "extract_elements": lambda probe: records.extract_elements(probe),
    "extract_nodal_field": lambda probe: records.extract_nodal_field(probe, 101),
    "extract_stresses": lambda probe: records.extract_stresses(probe),
    "node_records": lambda probe: records.node_records(probe),
    "element_records": lambda probe: records.element_records(probe),
    "nodal_field_records": lambda probe: records.nodal_field_records(101, probe),
    "stress_records": lambda probe: records.stress_records(probe),
}


class TestGcPause:
    def test_exactly_the_record_builders_are_paused(self):
        paused = paused_functions()
        assert set(paused) == PAUSED
        assert {f"fempost.records.{name}" for name in PROBED_CALLS} < PAUSED
        for name, func in paused.items():
            # a paused generator function would pause only the generator's creation
            assert not inspect.isgeneratorfunction(func.__wrapped__), name

    @pytest.mark.parametrize("name", sorted(PROBED_CALLS))
    def test_paused_while_running_and_restored(self, name):
        probe = Probe([])
        PROBED_CALLS[name](probe)
        assert probe.enabled is False
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: filcodec.decode_stream("*I 3garbled"), filcodec.FilCodecError),
            (lambda: records.extract_nodes([filcodec.LogicalRecord(1901, (1.5,))]),
             records.MalformedRecord),
            (lambda: records.element_records([(1, "CPE4RHXYZ", (1,))]), filcodec.FilCodecError),
        ],
        ids=["decode", "extract", "generate"],
    )
    def test_restored_after_a_raise(self, call, error):
        with pytest.raises(error):
            call()
        assert gc.isenabled()

    def test_a_callers_disable_holds(self, tmp_path, capsys):
        stream = synth_stream(tmp_path, capsys)
        flat = filcodec.encode_stream(stream).replace("\n", "")
        gc.disable()
        try:
            for name, call in PROBED_CALLS.items():
                probe = Probe(stream if name.startswith("extract") else [])
                call(probe)
                assert probe.enabled is False and not gc.isenabled(), name
            assert filcodec.decode_stream(flat) == stream
            assert not gc.isenabled()
            with pytest.raises(filcodec.FilCodecError):
                filcodec.decode_stream("*I 3garbled")
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_records_and_tables_hold_no_cycles(self, tmp_path, capsys):
        rng = random.Random(20260823)
        flats = [
            filcodec.encode_stream(random_stream(rng)).replace("\n", "") for _ in range(200)
        ]
        mesh = filcodec.encode_stream(synth_stream(tmp_path, capsys)).replace("\n", "")
        gc.collect()
        gc.disable()  # no automatic collection may hide a cycle from the last one
        try:
            kept = [filcodec.decode_stream(flat) for flat in flats]
            stream = filcodec.decode_stream(mesh)
            nodes = records.extract_nodes(stream)
            elements = records.extract_elements(stream)
            field = records.extract_nodal_field(stream, 101)
            stresses = records.extract_stresses(stream)
            built = (
                records.node_records(nodes.rows)
                + records.element_records(elements.rows)
                + records.nodal_field_records(101, field.rows)
                + records.stress_records(stresses.rows)
            )
            assert built == stream
            del kept, stream, nodes, elements, field, stresses, built
            assert gc.collect() == 0
        finally:
            gc.enable()
