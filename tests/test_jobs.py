import gc
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from fempost import jobs
from fempost.filcodec import decode_stream, fil_to_string
from fempost.jobs import (
    JobError,
    JobSpec,
    render_input,
    run_job,
)
from fempost.records import extract_nodal_field

PYTHON = sys.executable


class TestRenderInput:
    TEMPLATE = (
        "*HEADING\n"
        "demo deck\n"
        "** TC = @TC@\n"
        "** GC = @GC@\n"
        "*FILE FORMAT, ASCII\n"
    )

    def test_single_marker(self):
        out = render_input(self.TEMPLATE, [("@TC@", "*PARAM, TC=199.2")])
        lines = out.split("\n")
        assert lines[2] == "*PARAM, TC=199.2"
        assert lines[4] == "*FILE FORMAT, ASCII"

    def test_empty_substitutions_identity(self):
        assert render_input(self.TEMPLATE, []) == self.TEMPLATE

    def test_two_markers_exactly_two_changed_lines(self):
        out = render_input(
            self.TEMPLATE,
            [("@TC@", "*PARAM, TC=199.2"), ("@GC@", "*PARAM, GC=61.81")],
        )
        before = self.TEMPLATE.split("\n")
        after = out.split("\n")
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [2, 3]

    def test_marker_not_found(self):
        with pytest.raises(JobError, match="^marker '@MISSING@' occurs on no template line$"):
            render_input(self.TEMPLATE, [("@MISSING@", "x")])

    def test_replacement_lines_not_rescanned(self):
        # a replacement carrying another marker stays as written
        out = render_input(
            self.TEMPLATE,
            [("@TC@", "*PARAM, TC from @GC@"), ("@GC@", "*PARAM, GC=2")],
        )
        lines = out.split("\n")
        assert lines[2] == "*PARAM, TC from @GC@"
        assert lines[3] == "*PARAM, GC=2"


def make_spec(stub, job, mode="ok", **kw):
    defaults = dict(
        command_template=f"{PYTHON} {stub.name} {{job}} {mode}",
        job_name=job,
        workdir=stub.parent,
        initial_wait=0.3,
        poll_interval=0.05,
        timeout=5.0,
    )
    defaults.update(kw)
    return JobSpec(**defaults)


class TestRunJob:
    def test_successful_run(self, stub_solver):
        spec = make_spec(stub_solver, "job1", cleanup_suffixes=(".prt",))
        fil = run_job(spec)
        assert fil.exists()
        assert not (stub_solver.parent / "job1.prt").exists()
        stream = decode_stream(fil_to_string(fil))
        table = extract_nodal_field(stream, 101)
        assert table.rows == [(1, (0.0, -0.0508)), (2, (0.001, -0.002))]

    def test_solver_reaped_on_success(self, stub_solver):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_job(make_spec(stub_solver, "job7"))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_timeout_on_persistent_lock(self, stub_solver):
        spec = make_spec(stub_solver, "job2", mode="hang", timeout=0.6)
        start = time.monotonic()
        with pytest.raises(JobError, match="still present after 0.6 s$"):
            run_job(spec)
        elapsed = time.monotonic() - start
        assert elapsed <= spec.timeout + spec.poll_interval + 0.5
        # the hung solver was killed and reaped, not left sleeping
        pid = int((stub_solver.parent / "job2.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_failing_solver_reports_output(self, stub_solver):
        spec = make_spec(stub_solver, "job3", mode="fail")
        with pytest.raises(JobError, match="absent after completion; exit code 3; ") as exc:
            run_job(spec)
        assert "solver blew up" in str(exc.value)

    def test_spawn_failure(self, tmp_path):
        spec = JobSpec(
            command_template="/no/such/binary {job}",
            job_name="job4",
            workdir=tmp_path,
            initial_wait=0.0,
            poll_interval=0.05,
            timeout=1.0,
        )
        with pytest.raises(JobError, match="^cannot start "):
            run_job(spec)

    def test_returned_path_exists(self, stub_solver):
        fil = run_job(make_spec(stub_solver, "job5"))
        assert fil.exists()
        assert fil.name == "job5.fil"

    def test_fil_never_cleaned(self, stub_solver):
        spec = make_spec(stub_solver, "job6", cleanup_suffixes=(".fil", ".prt"))
        fil = run_job(spec)
        assert fil.exists()

    def test_solver_reaped_when_wait_interrupted(self, stub_solver, monkeypatch):
        spawned, popen = [], subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        def interrupted_sleep(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(jobs.subprocess, "Popen", recording_popen)
        monkeypatch.setattr(jobs.time, "sleep", interrupted_sleep)
        with pytest.raises(KeyboardInterrupt):
            run_job(make_spec(stub_solver, "job8", mode="hang"))
        assert len(spawned) == 1
        assert spawned[0].returncode is not None

    def test_spec_validation(self, tmp_path):
        with pytest.raises(ValueError):
            JobSpec("x {job}", "j", tmp_path, initial_wait=5.0, timeout=1.0)
        with pytest.raises(ValueError):
            JobSpec("x {job}", "j", tmp_path, poll_interval=0.0)


# (field, value, accepted) for each value of the shared numeric-input contract
SPEC_CASES = [
    *[("initial_wait", v, ok) for v, ok in
      [(math.nan, False), (math.inf, False), (-math.inf, False), (0.0, True), (-1.0, False), (0.2, True)]],
    *[("poll_interval", v, ok) for v, ok in
      [(math.nan, False), (math.inf, False), (-math.inf, False), (0.0, False), (-1.0, False), (0.2, True)]],
    *[("timeout", v, ok) for v, ok in
      [(math.nan, False), (math.inf, True), (-math.inf, False), (0.0, False), (-1.0, False), (5.0, True)]],
]


@pytest.mark.parametrize("field, value, accepted", SPEC_CASES, ids=lambda x: str(x))
def test_spec_numbers(tmp_path, field, value, accepted):
    kwargs = dict(initial_wait=0.1, poll_interval=0.05, timeout=1.0)
    kwargs[field] = value
    if accepted:
        assert getattr(JobSpec("x {job}", "j", tmp_path, **kwargs), field) == value
    else:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            JobSpec("x {job}", "j", tmp_path, **kwargs)
