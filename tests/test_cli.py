import gc
import io
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

from fempost.cli import main
from fempost.truss import example_problem


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_domain_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.fil"
        bad.write_text("garbage, not records\n")
        code, _, err = run_cli(capsys, "decode", str(bad))
        assert code == 2
        assert "error" in err

    def test_help_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "usage: fempost" in out

    def test_import_loads_no_scipy(self):
        # the runtime needs numpy alone; scipy is a test-only reference
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, fempost, fempost.cli; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_missing_required_option_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "extract", "some.fil")
        assert code == 1
        assert "usage:" in err


def _garbled_fil(tmp_path):
    path = tmp_path / "bad.fil"
    path.write_text("*I 3garbled record header\n")
    return ["decode", str(path)]


def _truss_config(cfg):
    def make_argv(tmp_path):
        path = tmp_path / "truss.cfg"
        path.write_text(json.dumps(cfg))
        return ["truss-opt", "--config", str(path)]
    return make_argv


EXAMPLE = asdict(example_problem())
_infeasible_truss = _truss_config({**EXAMPLE, "d_max": 0.001, "x0": [0.0037, 0.0049]})


def _three_column_target(tmp_path):
    path = tmp_path / "target.csv"
    path.write_text("cmod,load,extra\n0.1,100.0,1\n0.2,150.0,1\n")
    return ["czm-identify", "--target", str(path)]


def _header_only_fields(tmp_path):
    path = tmp_path / "fields.csv"
    path.write_text("load_level,element_id,sigma1,volume\n")
    return [
        "hazard", "--fields", str(path),
        "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
    ]


def _unstartable_job(tmp_path):
    return [
        "run", "--command", "/no/such/binary {job}", "--job", "job",
        "--workdir", str(tmp_path), "--initial-wait", "0",
    ]


def _hazard_on_mesh(capsys, tmp_path):
    """Arguments of a hazard run on a synthesized one-element mesh, outputs
    not yet given."""
    mesh = tmp_path / "mesh.fil"
    run_cli(capsys, "synth", "--nodes", "4", "--elements", "1", "-o", str(mesh))
    fields = tmp_path / "f.csv"
    fields.write_text("load_level,element_id,sigma1,volume\n1.0,1,2200.0,1.0\n")
    return [
        "hazard", "--fields", str(fields),
        "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
        "--mesh", str(mesh),
    ]


class TestDomainErrors:
    @pytest.mark.parametrize(
        "make_argv, message",
        [
            (_garbled_fil, "no record header at"),
            (_infeasible_truss, "missed even at area_max"),
            (_three_column_target, "expected 2 columns"),
            (_header_only_fields, "no data rows"),
            (_unstartable_job, "cannot start"),
        ],
        ids=["codec", "truss", "czm", "weibull", "jobs"],
    )
    def test_each_layer_exits_2(self, capsys, tmp_path, make_argv, message):
        code, _, err = run_cli(capsys, *make_argv(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"E": 68.948e9, "x0": [0.0037, 0.0049]}, "missing key 'rho'"),
            ({**EXAMPLE, "d_min": 0.0}, "unknown key 'd_min'"),
            ({**EXAMPLE, "E": "68.948e9"}, "key 'E' must be a number"),
            (list(EXAMPLE.values()), "must be a JSON object"),
        ],
        ids=["missing-key", "unknown-key", "non-numeric", "not-object"],
    )
    def test_bad_truss_config_exits_2(self, capsys, tmp_path, cfg, message):
        code, _, err = run_cli(capsys, *_truss_config(cfg)(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_short_czm_target_exits_2(self, capsys, tmp_path):
        from fempost.czm import ForwardConfig, TSLParams, forward_model

        # the planted (200, 60) curve, sampled only up to CMOD 0.45
        curve = forward_model(TSLParams(200.0, 60.0), ForwardConfig(cmod_max=0.45))
        target = tmp_path / "target.csv"
        rows = zip(curve.cmod.tolist(), curve.load.tolist())
        target.write_text("cmod,load\n" + "".join(f"{v!r},{p!r}\n" for v, p in rows))
        code, _, err = run_cli(capsys, "czm-identify", "--target", str(target))
        assert code == 2
        assert err.startswith("error: ") and "does not cover the model window" in err

    def test_item_error_carries_offset(self, capsys, tmp_path):
        fil = tmp_path / "bad_digits.fil"
        fil.write_text("*I 13I 11I 31_0\n")
        code, _, err = run_cli(capsys, "decode", str(fil))
        assert code == 2
        assert err.startswith("error: ") and "(stream offset 9)" in err

    def test_output_file_closed_on_error(self, capsys, tmp_path):
        from fempost.filcodec import LogicalRecord, write_fil

        fil = tmp_path / "empty_node.fil"
        write_fil([LogicalRecord(key=1901)], fil)  # node record with no attributes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(
                capsys, "extract", str(fil), "--key", "1901", "-o", str(tmp_path / "out.csv")
            )
            gc.collect()
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_failed_extract_leaves_output_alone(self, capsys, tmp_path):
        from fempost.filcodec import LogicalRecord, write_fil

        fil = tmp_path / "bad.fil"
        write_fil([LogicalRecord(1901, (1.5, 0.0))], fil)  # float node id
        out = tmp_path / "nodes.csv"
        out.write_text("node_id,x1,x2\n1,0.0,0.0\n")
        before = out.read_bytes()
        code, _, err = run_cli(capsys, "extract", str(fil), "--key", "1901", "-o", str(out))
        assert code == 2 and "node id is not an integer" in err
        assert out.read_bytes() == before

    def test_grid_output_without_mesh_writes_nothing(self, capsys, tmp_path):
        fields = tmp_path / "f.csv"
        fields.write_text("load_level,element_id,sigma1,volume\n1.0,1,2200.0,1.0\n")
        csv_out, vtk = tmp_path / "pf.csv", tmp_path / "grid.vtk"
        code, _, err = run_cli(
            capsys, "hazard", "--fields", str(fields),
            "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
            "--csv", str(csv_out), "-o", str(vtk),
        )
        assert code == 2 and "--mesh is required" in err
        assert not csv_out.exists() and not vtk.exists()

    @pytest.mark.parametrize("grid_exists", [False, True], ids=["new-grid", "existing-grid"])
    def test_unopenable_csv_leaves_grid_alone(self, capsys, tmp_path, grid_exists):
        vtk = tmp_path / "g.vtk"
        if grid_exists:
            vtk.write_text("an earlier grid\n")
        code, _, err = run_cli(
            capsys, *_hazard_on_mesh(capsys, tmp_path),
            "-o", str(vtk), "--csv", str(tmp_path / "nodir" / "pf.csv"),
        )
        assert code == 2 and "No such file or directory" in err
        if grid_exists:
            assert vtk.read_text() == "an earlier grid\n"
        else:
            assert not vtk.exists()

    def test_unopenable_grid_leaves_csv_alone(self, capsys, tmp_path):
        csv_out = tmp_path / "pf.csv"
        csv_out.write_text("an earlier table\n")
        code, _, _ = run_cli(
            capsys, *_hazard_on_mesh(capsys, tmp_path),
            "-o", str(tmp_path / "nodir" / "g.vtk"), "--csv", str(csv_out),
        )
        assert code == 2
        assert csv_out.read_text() == "an earlier table\n"

    def test_hazard_replaces_longer_outputs(self, capsys, tmp_path):
        argv = _hazard_on_mesh(capsys, tmp_path)
        old = (tmp_path / "old.vtk", tmp_path / "old.csv")
        new = (tmp_path / "new.vtk", tmp_path / "new.csv")
        for path in old:
            path.write_text("x" * 5000 + "\n")
        for grid, table in (old, new):
            code, _, _ = run_cli(capsys, *argv, "-o", str(grid), "--csv", str(table))
            assert code == 0
        assert [p.read_bytes() for p in old] == [p.read_bytes() for p in new]


class TestSynthDecode:
    def test_round_trip_pipeline(self, capsys, tmp_path):
        fil = tmp_path / "synth.fil"
        code, _, _ = run_cli(capsys, "synth", "--nodes", "10", "-o", str(fil))
        assert code == 0
        code, out, _ = run_cli(capsys, "decode", str(fil))
        assert code == 0
        node_lines = [l for l in out.splitlines() if "key=1901" in l]
        assert len(node_lines) == 10

    def test_decode_crlf_stdin(self, capsys, monkeypatch, tmp_path):
        fil = tmp_path / "synth.fil"
        run_cli(capsys, "synth", "--nodes", "10", "-o", str(fil))
        _, from_file, _ = run_cli(capsys, "decode", str(fil))
        crlf = fil.read_bytes().replace(b"\n", b"\r\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(crlf), newline=""))
        code, from_stdin, _ = run_cli(capsys, "decode", "-")
        assert code == 0
        assert from_stdin == from_file

    def test_deterministic_given_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.fil", tmp_path / "b.fil"
        run_cli(capsys, "synth", "--nodes", "12", "--seed", "7", "-o", str(a))
        run_cli(capsys, "synth", "--nodes", "12", "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_file_output_matches_stdout_and_encodes_once(self, capsys, monkeypatch, tmp_path):
        from fempost import filcodec

        calls = []
        encode_stream = filcodec.encode_stream

        def counting_encode_stream(records):
            calls.append(records)
            return encode_stream(records)

        monkeypatch.setattr(filcodec, "encode_stream", counting_encode_stream)
        fil = tmp_path / "synth.fil"
        code, _, _ = run_cli(capsys, "synth", "--nodes", "12", "--seed", "7", "-o", str(fil))
        assert code == 0
        assert len(calls) == 1
        _, out, _ = run_cli(capsys, "synth", "--nodes", "12", "--seed", "7")
        assert fil.read_bytes() == out.encode("ascii")

    def test_different_seed_differs(self, capsys, tmp_path):
        a, b = tmp_path / "a.fil", tmp_path / "b.fil"
        run_cli(capsys, "synth", "--seed", "1", "-o", str(a))
        run_cli(capsys, "synth", "--seed", "2", "-o", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestExtract:
    @pytest.fixture
    def fixture_fil(self, capsys, tmp_path):
        fil = tmp_path / "f.fil"
        run_cli(capsys, "synth", "--nodes", "9", "--elements", "4", "-o", str(fil))
        return fil

    def test_extract_nodes(self, capsys, fixture_fil):
        code, out, _ = run_cli(capsys, "extract", str(fixture_fil), "--key", "1901")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node_id,x1,x2"
        assert len(lines) == 10

    def test_extract_elements(self, capsys, fixture_fil):
        code, out, _ = run_cli(capsys, "extract", str(fixture_fil), "--key", "1900")
        assert code == 0
        assert out.splitlines()[0] == "element_id,element_type,connectivity"

    def test_extract_raw_fallback(self, capsys, fixture_fil):
        code, out, _ = run_cli(capsys, "extract", str(fixture_fil), "--key", "4242")
        assert code == 0
        assert out.splitlines()[0] == "attributes"


def _needs(device):
    return pytest.mark.skipif(not Path(device).exists(), reason=f"no {device}")


class TestOutputs:
    """Every output option takes - for stdout, a file, a device or a pipe."""

    @pytest.fixture
    def fil(self, capsys, tmp_path):
        fil = tmp_path / "f.fil"
        run_cli(capsys, "synth", "--nodes", "9", "--elements", "4", "-o", str(fil))
        return fil

    @pytest.mark.parametrize("argv", [["decode"], ["extract", "--key", "1901"]])
    def test_file_output_matches_stdout(self, capsys, tmp_path, fil, argv):
        out_file = tmp_path / "out.txt"
        code, _, _ = run_cli(capsys, argv[0], str(fil), *argv[1:], "-o", str(out_file))
        assert code == 0
        _, out, _ = run_cli(capsys, argv[0], str(fil), *argv[1:])
        assert out_file.read_bytes() == out.encode("ascii") and out

    @_needs("/dev/null")
    @pytest.mark.parametrize(
        "argv",
        [["decode", "{fil}"], ["extract", "{fil}", "--key", "1900"], ["synth", "--nodes", "4"]],
        ids=["decode", "extract", "synth"],
    )
    def test_dev_null_output(self, capsys, fil, argv):
        code, out, err = run_cli(capsys, *(a.format(fil=fil) for a in argv), "-o", "/dev/null")
        assert (code, out, err) == (0, "", "")

    @_needs("/dev/null")
    def test_hazard_csv_to_dev_null(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *_hazard_on_mesh(capsys, tmp_path), "--csv", "/dev/null")
        assert (code, out, err) == (0, "", "")

    @_needs("/dev/stdout")
    @pytest.mark.parametrize("option", ["-o", "--csv"])
    def test_hazard_to_dev_stdout_pipe(self, capsys, tmp_path, option):
        argv = _hazard_on_mesh(capsys, tmp_path)
        out_file = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, option, str(out_file))[0] == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "fempost.cli", *argv, option, "/dev/stdout"],
            env=env, capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == out_file.read_bytes()

    def test_hazard_grid_to_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        argv = _hazard_on_mesh(capsys, tmp_path)
        grid = tmp_path / "g.vtk"
        assert run_cli(capsys, *argv, "-o", str(grid))[0] == 0
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv, "-o", "-")
        assert code == 0
        assert out.encode("ascii") == grid.read_bytes()
        assert not (tmp_path / "-").exists()


class TestTrussOpt:
    def test_builtin_example_weight(self, capsys):
        code, out, _ = run_cli(capsys, "truss-opt")
        assert code == 0
        weight_line = next(l for l in out.splitlines() if l.startswith("weight:"))
        weight = float(weight_line.split()[1])
        assert abs(weight - 2598.7) / 2598.7 < 0.005

    def test_config_file(self, capsys, tmp_path):
        cfg = {
            "E": 68.948e9, "rho": 2767.990471, "L": 9.144, "P": 444.974e3,
            "d_max": 0.0508, "sigma_max": 172.369e6,
            "area_min": 0.003650822800775, "area_max": 0.0225806,
            "x0": [0.0037, 0.0049],
        }
        path = tmp_path / "truss.cfg"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "truss-opt", "--config", str(path))
        assert code == 0
        assert "weight: 2598.7" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "truss-opt")
        _, out2, _ = run_cli(capsys, "truss-opt")
        assert out1 == out2


class TestWeibullPipeline:
    def test_fit_and_hazard(self, capsys, tmp_path):
        import numpy as np

        fields = tmp_path / "fields.csv"
        lines = ["load_level,element_id,sigma1,volume"]
        for J in np.linspace(0.0, 400.0, 81):
            lines.append(f"{J},1,{800.0 + 10.0 * J},1.0")
        fields.write_text("\n".join(lines) + "\n")

        n = 200
        u = (np.arange(1, n + 1) - 0.3) / (n + 0.4)
        sw = 1000.0 + 1200.0 * (-np.log(1 - u)) ** 0.25
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "failure_load\n" + "\n".join(str((s - 800.0) / 10.0) for s in sw) + "\n"
        )

        code, out, _ = run_cli(
            capsys, "weibull-fit", "--fields", str(fields),
            "--samples", str(samples), "--v0", "1.0",
        )
        assert code == 0
        fitted = next(l for l in out.splitlines() if l.startswith("fitted:"))
        assert "sigma_th=1000" in fitted
        assert "m=4" in fitted

        csv_out = tmp_path / "hazard.csv"
        code, _, _ = run_cli(
            capsys, "hazard", "--fields", str(fields), "--level", "400.0",
            "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
            "--csv", str(csv_out),
        )
        assert code == 0
        assert csv_out.read_text().splitlines()[0] == "element_index,Pf,log10_Pf"

    def test_hazard_to_stdout(self, capsys, tmp_path):
        fields = tmp_path / "f.csv"
        fields.write_text(
            "load_level,element_id,sigma1,volume\n"
            "1.0,1,2200.0,1.0\n1.0,2,1500.0,2.0\n1.0,3,1000.0,1.0\n"
        )
        code, out, _ = run_cli(
            capsys, "hazard", "--fields", str(fields),
            "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element_index,Pf,log10_Pf"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    def test_hazard_grid_export(self, capsys, tmp_path):
        mesh = tmp_path / "mesh.fil"
        run_cli(capsys, "synth", "--nodes", "4", "--elements", "1", "-o", str(mesh))
        fields = tmp_path / "f.csv"
        fields.write_text("load_level,element_id,sigma1,volume\n1.0,1,2200.0,1.0\n")
        vtk = tmp_path / "out.vtk"
        code, _, _ = run_cli(
            capsys, "hazard", "--fields", str(fields),
            "--sigma-th", "1000", "--m", "4", "--sigma-u", "1200", "--v0", "1.0",
            "--mesh", str(mesh), "-o", str(vtk),
        )
        assert code == 0
        from test_gridio import parse_legacy_grid

        parse_legacy_grid(vtk.read_text())


class TestCzmIdentify:
    def test_identify_from_csv(self, capsys, tmp_path):
        import numpy as np
        from fempost.czm import ForwardConfig, TSLParams, forward_model

        curve = forward_model(TSLParams(200.0, 60.0), ForwardConfig())
        target = tmp_path / "target.csv"
        target.write_text(
            "cmod,load\n"
            + "\n".join(f"{v},{p}" for v, p in zip(curve.cmod, curve.load))
            + "\n"
        )
        code, out, _ = run_cli(capsys, "czm-identify", "--target", str(target))
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("Tc=200")
        assert "Gamma_c=60" in first

    def test_seed_option_removed(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "czm-identify", "--target", str(tmp_path / "t.csv"), "--seed", "1"
        )
        assert code == 1
        assert "--seed" in err


class TestRun:
    def test_nan_initial_wait_starts_nothing(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run",
            "--command", f"{sys.executable} -c \"open('{{job}}.marker', 'w').close()\"",
            "--job", "nanjob",
            "--workdir", str(tmp_path),
            "--initial-wait", "nan",
        )
        assert code == 2
        assert "initial_wait must be non-negative" in err
        time.sleep(1.0)  # long enough for a spawned interpreter to write it
        assert not (tmp_path / "nanjob.marker").exists()

    def test_run_subcommand(self, capsys, stub_solver):
        code, out, _ = run_cli(
            capsys, "run",
            "--command", f"{sys.executable} {stub_solver.name} {{job}}",
            "--job", "clijob",
            "--workdir", str(stub_solver.parent),
            "--initial-wait", "0.3", "--poll-interval", "0.05",
            "--timeout", "5",
        )
        assert code == 0
        assert out.strip().endswith("clijob.fil")
