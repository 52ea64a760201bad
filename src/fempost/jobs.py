"""External-solver orchestration: input-deck templating, subprocess launch,
lock-file completion polling, results-file handoff.

The protocol mirrors the usual batch-solver workflow: the job is launched,
the launcher may return while the solver still runs, and completion is
signalled by the disappearance of the ``{job}.lck`` sentinel file.  Process
exit alone is never treated as completion.
"""

from __future__ import annotations

import shlex
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from ._base import FempostError, check_number

__all__ = [
    "JobSpec",
    "JobError",
    "render_input",
    "run_job",
]


class JobError(FempostError):
    """A marker on no template line, a solver that cannot start, a lock file
    past the timeout, or a finished job without a results file."""


@dataclass(frozen=True)
class JobSpec:
    """How to launch one solver job and wait for it."""

    command_template: str            # shell-less command line with {job}
    job_name: str
    workdir: Path = Path(".")
    initial_wait: float = 0.5
    poll_interval: float = 0.1
    timeout: float = 30.0
    cleanup_suffixes: tuple = ()     # e.g. (".com", ".prt", ".sim")

    def __post_init__(self):
        check_number("initial_wait", self.initial_wait, zero=True)
        check_number("poll_interval", self.poll_interval)
        check_number("timeout", self.timeout, inf=True)
        if self.timeout <= self.initial_wait:
            raise ValueError("timeout must exceed initial_wait")
        object.__setattr__(self, "workdir", Path(self.workdir))


def render_input(template_text: str, substitutions) -> str:
    """Rewrite a solver input deck by whole-line marker replacement.

    Every line containing a marker is replaced wholesale by the corresponding
    replacement line; all other lines pass through byte-identical.  Raises
    :class:`JobError` for a marker that matches no line.
    """
    ends_with_newline = template_text.endswith("\n")
    lines = template_text.split("\n")
    if ends_with_newline:
        lines = lines[:-1]
    # markers are matched against the original lines only; replacement lines
    # are never rescanned, so a replacement containing a marker is left alone
    out_lines = list(lines)
    for marker, replacement in substitutions:
        hit = False
        for i, line in enumerate(lines):
            if marker in line:
                out_lines[i] = replacement
                hit = True
        if not hit:
            raise JobError(f"marker {marker!r} occurs on no template line")
    out = "\n".join(out_lines)
    return out + "\n" if ends_with_newline else out


def run_job(spec: JobSpec) -> Path:
    """Launch the solver and wait for the lock file to clear.

    Returns the path to ``{job}.fil``.  Captured stdout/stderr are persisted
    as ``{job}.stdout`` / ``{job}.stderr`` next to the job for post-mortem.
    Cleanup suffixes are deleted after the results file is confirmed; the
    results file itself is never deleted even if listed.  The solver process
    is always reaped, also when the wait is interrupted; one still running at
    the timeout is killed.
    """
    workdir = spec.workdir
    command = shlex.split(spec.command_template.format(job=spec.job_name))
    stdout_path = workdir / f"{spec.job_name}.stdout"
    stderr_path = workdir / f"{spec.job_name}.stderr"
    try:
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
            process = subprocess.Popen(
                command, cwd=workdir, stdout=out, stderr=err
            )
    except OSError as exc:
        raise JobError(f"cannot start {command!r}: {exc}") from exc

    try:
        deadline = time.monotonic() + spec.timeout
        time.sleep(spec.initial_wait)
        lck = workdir / f"{spec.job_name}.lck"
        while lck.exists():
            if time.monotonic() >= deadline:
                raise JobError(f"lock file {lck} still present after {spec.timeout} s")
            time.sleep(spec.poll_interval)

        # a solver killed here has no exit code of its own to report
        try:
            exit_code = process.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            exit_code = None
    finally:
        # kill is a no-op on a process that has already been reaped
        process.kill()
        process.wait()
    fil = workdir / f"{spec.job_name}.fil"
    if not fil.exists():
        detail = ""
        if exit_code:
            detail = (
                f"; exit code {exit_code}"
                f"; stderr: {stderr_path.read_text().strip()!r}"
            )
        raise JobError(f"results file {fil} absent after completion{detail}")

    for suffix in spec.cleanup_suffixes:
        if suffix == ".fil":
            continue
        victim = workdir / f"{spec.job_name}{suffix}"
        if victim.exists():
            victim.unlink()
    return fil
