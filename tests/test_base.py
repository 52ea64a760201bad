"""The shared error base, numeric input check and CSV reader."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import fempost
from fempost import cli, czm, filcodec, jobs, records, truss, weibull
from fempost._base import check_number, read_csv


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
