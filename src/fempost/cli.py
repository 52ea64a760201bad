"""Command-line entry point exposing every pipeline of the package.

Subcommands: decode, extract, synth, weibull-fit, hazard, truss-opt,
czm-identify, run.  Exit codes: 0 success, 1 usage error, 2 domain error.
All numeric report output uses 6 significant digits so golden-file tests
stay stable.  Each subcommand builds all its output before it writes any, and
every output option takes a file, a device, a pipe or - for stdout.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import czm, filcodec, gridio, jobs, records, truss, weibull
from ._base import FempostError, check_number, read_csv

DEFAULT_SEED = 1234

#: Exceptions that signal a domain problem rather than bad usage.  Plain
#: ValueError covers the validation in the library's dataclasses and numpy's
#: parsing of numeric input; FloatingPointError an overflow, division by zero
#: or invalid value in the math, which :func:`main` raises instead of warning.
DOMAIN_ERRORS = (FempostError, ValueError, OSError, FloatingPointError)


def _fmt(x) -> str:
    return f"{x:.6g}"


def _read_flat(path) -> str:
    return filcodec.fil_to_string(sys.stdin if path == "-" else path)


def _file_identity(fh):
    """``(st_dev, st_ino)`` of the regular file *fh* writes to, else None."""
    try:
        status = os.fstat(fh.fileno())
    except OSError:  # a stream without a descriptor, such as a captured stdout
        return None
    return (status.st_dev, status.st_ino) if stat.S_ISREG(status.st_mode) else None


def _write_files(outputs) -> None:
    """Write each ``(path, text)`` output as is, stdout (path None or -) last.

    Every file is opened without truncating before any is written; if one
    cannot be opened, or two outputs name the same regular file (stdout
    included, when it is one), nothing is written and the files this call
    created are removed again.  Only regular files are truncated, so devices
    and pipes take output too.
    """
    files = [(path, text) for path, text in outputs if path not in (None, "-")]
    with ExitStack() as stack:
        created, handles = [], []
        try:
            for path, _ in files:
                if not Path(path).exists():
                    created.append(Path(os.path.realpath(path)))
                handles.append(stack.enter_context(open(path, "a", newline="")))
            named = [(path, fh) for (path, _), fh in zip(files, handles)]
            if len(files) < len(outputs):
                named.append(("-", sys.stdout))
            seen = {}
            for path, fh in named:
                identity = _file_identity(fh)
                if identity is None:
                    continue
                if identity in seen:
                    raise ValueError(f"outputs {seen[identity]} and {path} name the same file")
                seen[identity] = path
        except (OSError, ValueError):
            stack.close()
            for path in created:
                path.unlink(missing_ok=True)
            raise
        for fh, (_, text) in zip(handles, files):
            if _file_identity(fh) is not None:
                fh.truncate(0)
            fh.write(text)
    for path, text in outputs:
        if path in (None, "-"):
            print(text, end="")


def cmd_decode(args) -> list:
    stream = filcodec.decode_stream(_read_flat(args.input), lenient=args.lenient)
    lines = []
    for i, rec in enumerate(stream):
        attrs = ", ".join(
            _fmt(a) if isinstance(a, float) else repr(a) for a in rec.attributes
        )
        lines.append(f"record {i}: key={rec.key} length={rec.length} attrs=[{attrs}]\n")
    lines.append(f"total records: {len(stream)}\n")
    return [(args.output, "".join(lines))]


def cmd_extract(args) -> list:
    stream = filcodec.decode_stream(_read_flat(args.input))
    key = args.key
    if key == records.KEY_NODES:
        text = records.extract_nodes(stream).to_csv()
    elif key == records.KEY_ELEMENTS:
        text = records.extract_elements(stream).to_csv()
    elif key in (records.KEY_DISPLACEMENTS, records.KEY_REACTIONS):
        text = records.extract_nodal_field(stream, key).to_csv()
    elif key == records.KEY_STRESS:
        text = records.extract_stresses(stream).to_csv()
    else:
        text = "attributes\n" + "".join(
            " ".join(_fmt(a) if isinstance(a, float) else str(a) for a in attrs) + "\n"
            for attrs in records.extract_raw(stream, key)
        )
    return [(args.output, text)]


def cmd_synth(args) -> list:
    """Generate a seeded fixture results file: node grid, elements, fields."""
    check_number("--nodes", args.nodes, zero=True)
    check_number("--elements", args.elements, zero=True)
    rng = np.random.default_rng(args.seed)
    side = max(int(np.ceil(np.sqrt(args.nodes))), 1)
    node_rows = []
    for nid in range(1, args.nodes + 1):
        i, j = divmod(nid - 1, side)
        node_rows.append((nid, (float(j), float(i))))
    recs = records.node_records(node_rows)

    elem_rows = []
    for eid in range(1, args.elements + 1):
        i, j = divmod(eid - 1, max(side - 1, 1))
        n0 = i * side + j + 1
        conn = (n0, n0 + 1, n0 + side + 1, n0 + side)
        if max(conn) <= args.nodes:
            elem_rows.append((eid, "CPE4", conn))
    recs += records.element_records(elem_rows)

    disp_rows = [
        (nid, tuple(rng.normal(scale=0.01, size=2))) for nid, _ in node_rows
    ]
    recs += records.nodal_field_records(records.KEY_DISPLACEMENTS, disp_rows)

    stress_rows = [
        (eid, 1, tuple(rng.normal(scale=100.0, size=4))) for eid, _, _ in elem_rows
    ]
    recs += records.stress_records(stress_rows)

    text = filcodec.encode_stream(recs)
    return [(args.output, text + "\n" if text else "")]


def cmd_weibull_fit(args) -> list:
    fields = weibull.load_element_fields_csv(args.fields)
    samples = weibull.rank_samples(read_csv(args.samples, usecols=0)[:, 0])
    params, trace = weibull.fit_three_parameter(
        fields, samples, V0=args.v0, tol=args.tol, max_iter=args.max_iter
    )
    text = f"iterations: {len(trace)}\n" + "".join(
        f"iter {i}: sigma_th={_fmt(th)} m={_fmt(m)} sigma_u={_fmt(su)}\n"
        for i, (th, m, su) in enumerate(trace)
    )
    text += (
        f"fitted: sigma_th={_fmt(params.sigma_th)} m={_fmt(params.m)} "
        f"sigma_u={_fmt(params.sigma_u)} V0={_fmt(params.V0)}\n"
    )
    return [(None, text)]


def cmd_hazard(args) -> list:
    if args.output and not args.mesh:
        raise ValueError("--mesh is required for grid export")
    fields = weibull.load_element_fields_csv(args.fields)
    level = args.level if args.level is not None else fields[-1].load_level
    field = next((f for f in fields if f.load_level == level), None)
    if field is None:
        raise ValueError(f"no element field at load level {level}")
    params = weibull.WeibullParams(args.sigma_th, args.m, args.sigma_u, args.v0)
    pf, log_pf = weibull.hazard_map(field, params)
    outputs = []
    if args.output:
        stream = filcodec.decode_stream(filcodec.fil_to_string(args.mesh))
        nodes = records.extract_nodes(stream)
        elements = records.extract_elements(stream)
        grid = gridio.unstructured_grid_text(nodes, elements, "log10_Pf", log_pf)
        outputs.append((args.output, grid))
    if args.csv or not args.output:
        table = "element_index,Pf,log10_Pf\n" + "".join(
            f"{i},{_fmt(p)},{_fmt(lp)}\n" for i, (p, lp) in enumerate(zip(pf, log_pf))
        )
        outputs.append((args.csv, table))
    return outputs


def cmd_truss_opt(args) -> list:
    problem = truss.load_problem(args.config) if args.config else truss.example_problem()
    state, _ = truss.optimize_truss(problem)
    text = (
        f"areas: [{_fmt(state.areas[0])}, {_fmt(state.areas[1])}] m^2\n"
        f"displacements: ux={_fmt(state.displacements[0])} "
        f"uy={_fmt(state.displacements[1])} m\n"
        f"member stresses: [{_fmt(state.member_stresses[0])}, "
        f"{_fmt(state.member_stresses[1])}] Pa\n"
        f"weight: {_fmt(state.weight)} N\n"
    )
    return [(None, text)]


def cmd_czm_identify(args) -> list:
    config = czm.ForwardConfig()
    target = czm.load_target_csv(args.target, config)
    box = ((args.box[0], args.box[1]), (args.box[2], args.box[3]))
    params, history = czm.inverse_identify(
        target, box, config=config, tol=args.tol, max_outer=args.max_outer,
    )
    text = (
        f"Tc={_fmt(params.Tc)} Gamma_c={_fmt(params.Gamma_c)} "
        f"delta_c={_fmt(params.delta_c)} iterations={len(history)} "
        f"mismatch={_fmt(history[-1].incumbent_mismatch)}\n"
        "iteration,Tc,Gamma_c,mismatch,best_mismatch\n"
    )
    text += "".join(
        f"{i},{_fmt(step.params.Tc)},{_fmt(step.params.Gamma_c)},"
        f"{_fmt(step.mismatch)},{_fmt(step.incumbent_mismatch)}\n"
        for i, step in enumerate(history)
    )
    return [(None, text)]


def cmd_run(args) -> list:
    spec = jobs.JobSpec(
        command_template=args.command,
        job_name=args.job,
        workdir=args.workdir,
        initial_wait=args.initial_wait,
        poll_interval=args.poll_interval,
        timeout=args.timeout,
        cleanup_suffixes=tuple(args.cleanup or ()),
    )
    return [(None, f"{jobs.run_job(spec)}\n")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fempost", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decode", help="dump the logical records of a results file")
    p.add_argument("input", help="results file path, or - for stdin")
    p.add_argument("-o", "--output")
    p.add_argument("--lenient", action="store_true",
                   help="resynchronize on the next '*' after a garbled record")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("extract", help="extract one record key as a table")
    p.add_argument("input")
    p.add_argument("--key", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate a seeded fixture results file")
    p.add_argument("--nodes", type=int, default=9)
    p.add_argument("--elements", type=int, default=4)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("weibull-fit", help="calibrate three-parameter Weibull statistics")
    p.add_argument("--fields", required=True, help="CSV: load_level,element_id,sigma1,volume")
    p.add_argument("--samples", required=True, help="CSV: failure_load per row")
    p.add_argument("--v0", type=float, required=True, help="reference volume")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=100)
    p.set_defaults(func=cmd_weibull_fit)

    p = sub.add_parser("hazard", help="per-element failure probability map")
    p.add_argument("--fields", required=True)
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--sigma-th", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--sigma-u", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--mesh", help="results file carrying node/element records")
    p.add_argument("-o", "--output", help="legacy unstructured-grid output path")
    p.add_argument("--csv", help="CSV fallback output path")
    p.set_defaults(func=cmd_hazard)

    p = sub.add_parser("truss-opt", help="closed-form 2-bar truss sizing")
    p.add_argument("--config", help="JSON problem definition; omit for the built-in example")
    p.set_defaults(func=cmd_truss_opt)

    p = sub.add_parser("czm-identify", help="inverse cohesive parameter identification")
    p.add_argument("--target", required=True, help="CSV: cmod,load")
    p.add_argument("--box", type=float, nargs=4, metavar=("TC_LO", "TC_HI", "GC_LO", "GC_HI"),
                   default=[100.0, 300.0, 20.0, 100.0])
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--max-outer", type=int, default=10)
    p.set_defaults(func=cmd_czm_identify)

    p = sub.add_parser("run", help="launch a solver job and wait on its lock file")
    p.add_argument("--command", required=True, help="command template with {job}")
    p.add_argument("--job", required=True)
    p.add_argument("--workdir", default=".")
    p.add_argument("--initial-wait", type=float, default=0.5)
    p.add_argument("--poll-interval", type=float, default=0.1)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--cleanup", nargs="*", help="file suffixes to delete on success")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _write_files(args.func(args))
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
