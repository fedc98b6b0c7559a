"""Command-line front end: ``python -m repro run|sweep|report|trace|golden``.

* ``run`` — train one cell described by flags and print its headline metrics;
* ``sweep`` — execute a campaign spec file (JSON, or TOML on Python 3.11+)
  against a persistent result store, with ``--jobs N`` process parallelism and
  per-cell progress lines;
* ``report`` — query a store: pivot any result metric over any two axes and
  optionally normalise methods against a baseline (relative TTA);
* ``golden`` — verify the committed golden-trace fixtures (``tests/golden/``)
  against fresh runs, or rewrite them with ``--update`` after an intentional
  numerical change (:mod:`repro.golden`);
* ``trace`` — consume a recorded observability trace (``run``/``sweep``
  ``--trace PATH``): ``report`` prints the summary tables, ``validate``
  checks the Chrome Trace Event structure, ``convert`` turns a raw JSONL
  stream into a Chrome trace.

Every command exits non-zero on failure: 2 with one ``error: ...`` line when
the input is at fault (a flag, a spec or trace file, an axis or method name —
everything before training starts, see :func:`_user_input`), 1 when the work
itself failed — ``run``/``sweep`` if any cell failed (the remaining cells
still run and persist; each failure prints as ``FAILED <label>:`` plus the
cell's traceback), ``golden`` when any frozen trace drifted, ``trace
validate`` on structural errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.campaign.runner import CampaignReport, Progress, run_campaign
from repro.campaign.spec import CampaignSpec, build_cell, load_spec_file
from repro.campaign.store import ResultStore


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table: header, dashed rule, aligned columns."""
    widths = [len(str(column)) for column in header]
    for row in rows:
        widths = [max(width, len(str(cell))) for width, cell in zip(widths, row)]
    lines = [
        "  ".join(str(cell).ljust(width) for cell, width in zip(header, widths)),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def _parse_axis_value(raw: str):
    """Parse a CLI axis value: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


@contextlib.contextmanager
def _user_input():
    """The one way a subcommand reports a user-input error.

    What runs inside is input handling — flags to overrides to a cell, a spec
    file to its cells, opening a trace, naming an axis or a golden method —
    so what it raises is the user's to fix: print the message the raise
    already carries as one ``error:`` line and exit 2, like argparse does.
    Training and reading results stay outside and keep their tracebacks.
    """
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, RuntimeError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error  # str() would quote it
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2) from None


def _report_failures(report: CampaignReport) -> int:
    """Print each failed cell's captured traceback once; the exit code."""
    for outcome in report.failures():
        print(f"FAILED {outcome.cell.label}:\n{outcome.error}", file=sys.stderr)
    return 1 if report.failed else 0


def _parse_axis_pairs(pairs: Optional[Sequence[str]], flag: str) -> Dict:
    """Parse repeated ``AXIS=VALUE`` options (shared by --filter and --set)."""
    parsed: Dict = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"{flag} expects axis=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        parsed[name] = _parse_axis_value(raw)
    return parsed


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def printer(progress: Progress) -> None:
        outcome = progress.outcome
        detail = ""
        if outcome.result is not None:
            detail = (
                f"  acc={outcome.result.final_accuracy:.3f}"
                f"  time={outcome.result.simulated_time:.3f}s"
            )
        timing = ""
        if not progress.cache_hit:
            timing = f"  [{progress.elapsed_s:.1f}s]"
        if progress.eta_s and progress.done < progress.total:
            timing += f"  eta~{progress.eta_s:.0f}s"
        print(
            f"[{progress.done}/{progress.total}] {outcome.status:<6} "
            f"{outcome.cell.label}{detail}{timing}",
            flush=True,
        )

    return printer


def _start_trace(path: Optional[str]) -> None:
    """Enable the process tracer when ``--trace PATH`` was given."""
    if not path:
        return
    from repro.obs import TRACER  # noqa: PLC0415

    TRACER.enable(path=path, role="main")


def _finish_trace(path: Optional[str], quiet: bool) -> None:
    """Flush, export and summarise a trace started by :func:`_start_trace`."""
    if not path:
        return
    from repro.obs import TRACER  # noqa: PLC0415
    from repro.obs.export import load_events, summary, write_chrome  # noqa: PLC0415

    paths = TRACER.finish()
    if not paths["jsonl"]:
        return
    events = load_events(paths["jsonl"])
    if paths["chrome"]:
        write_chrome(events, paths["chrome"])
    if not quiet:
        print()
        print(summary(events))
        if paths["chrome"]:
            print(
                f"\ntrace: {paths['chrome']} (Chrome Trace Event JSON — open in "
                f"https://ui.perfetto.dev); raw events: {paths['jsonl']}"
            )
        else:
            print(f"\ntrace events: {paths['jsonl']}")


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def cmd_run(args: argparse.Namespace) -> int:
    overrides = {
        "model": args.model,
        "method": args.method,
        "bandwidth": args.bandwidth,
        "world_size": args.world_size,
        "epochs": args.epochs,
        "seed": args.seed,
    }
    if args.target_accuracy is not None:
        overrides["target_accuracy"] = args.target_accuracy
    if args.max_iterations_per_epoch is not None:
        overrides["max_iterations_per_epoch"] = args.max_iterations_per_epoch
    if args.dataset_samples is not None:
        overrides["dataset_samples"] = args.dataset_samples
    if args.regime is not None:
        overrides["sync_schedule"] = args.regime
    with _user_input():
        overrides.update(_parse_axis_pairs(args.set, "--set"))
        cell = build_cell(overrides)
    store = ResultStore(args.store) if args.store else None
    _start_trace(args.trace)
    try:
        report = run_campaign([cell], store=store, jobs=1, progress=_progress_printer(args.quiet))
    finally:
        _finish_trace(args.trace, args.quiet)
    if report.failed:
        return _report_failures(report)
    result = report.outcomes[0].result
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(
            format_table(
                ("model", "method", "final acc", "best acc", "TTA (s)", "sim time (s)", "comm (s)"),
                [
                    (
                        result.model,
                        result.method,
                        f"{result.final_accuracy:.3f}",
                        f"{result.best_accuracy:.3f}",
                        f"{result.tta:.3f}" if result.tta is not None else "-",
                        f"{result.simulated_time:.3f}",
                        f"{result.comm_time:.3f}",
                    )
                ],
            )
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    with _user_input():
        data, spec_store_path = load_spec_file(args.spec)
        spec = CampaignSpec.from_dict({key: value for key, value in data.items() if key != "store"})
        cells = spec.expand()
    store_path = args.store or spec_store_path or f"campaign_results/{spec.name}.jsonl"
    store = ResultStore(store_path)
    print(f"campaign {spec.name!r}: {len(cells)} cells -> store {store_path}", flush=True)

    _start_trace(args.trace)
    try:
        report = run_campaign(
            spec,
            store=store,
            jobs=args.jobs,
            progress=_progress_printer(args.quiet),
            recompute=args.recompute,
            retries=args.retries,
            cell_timeout=args.timeout,
        )
    finally:
        _finish_trace(args.trace, args.quiet)
    print(report.summary(), flush=True)
    status = _report_failures(report)
    if not args.quiet and report.results():
        _print_default_report(report)
    return status


def _print_default_report(report: CampaignReport) -> None:
    """Per-cell result table, the sweep's built-in report."""
    rows = []
    for outcome in report.outcomes:
        result = outcome.result
        if result is None:
            continue
        rows.append(
            (
                result.model,
                result.method,
                f"{result.bandwidth_mbps:g}",
                result.world_size,
                outcome.cell.config.seed,
                f"{result.final_accuracy:.3f}",
                f"{result.tta:.3f}" if result.tta is not None else "-",
                f"{result.simulated_time:.3f}",
                outcome.status,
            )
        )
    print()
    print(
        format_table(
            ("model", "method", "Mbps", "world", "seed", "final acc", "TTA (s)", "sim (s)", "status"),
            rows,
        )
    )


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (  # noqa: PLC0415
        chrome_trace,
        load_events,
        summary,
        validate_chrome_trace,
        write_chrome,
    )

    with _user_input():
        if args.trace_command != "validate":
            events = load_events(args.path)
        elif args.path.endswith(".jsonl"):
            # validate accepts the raw JSONL stream as well as the Chrome trace
            # JSON (converted in memory first, so both artifacts are checkable).
            document = chrome_trace(load_events(args.path))
        else:
            with open(args.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)

    if args.trace_command == "report":
        print(summary(events))
        return 0
    if args.trace_command == "convert":
        document = write_chrome(events, args.out)
        print(f"wrote {args.out} ({len(document['traceEvents'])} trace events)")
        return 0
    errors = validate_chrome_trace(document)
    if errors:
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"{args.path}: valid ({len(document.get('traceEvents', []))} trace events)")
    return 0


def cmd_golden(args: argparse.Namespace) -> int:
    # Imported lazily: the golden module pulls in the training stack.
    from repro import golden  # noqa: PLC0415

    with _user_input():
        selected = golden.select_methods(args.only)
    if args.update:
        def progress(name: str, path: str) -> None:
            if not args.quiet:
                print(f"wrote {path}  ({name})", flush=True)

        golden.regenerate(args.dir, progress=progress, only=args.only)
        return 0

    # --trace doubles as the instrumentation no-drift gate: verification
    # against the committed fixtures must stay bit-identical while traced.
    _start_trace(args.trace)
    try:
        drifted = golden.verify(args.dir, rtol=args.rtol, only=args.only)
    finally:
        _finish_trace(args.trace, args.quiet)
    if drifted:
        for name, diffs in drifted.items():
            print(golden.format_diff(name, diffs), file=sys.stderr)
        return 1
    if not args.quiet:
        directory = args.dir or golden.DEFAULT_GOLDEN_DIR
        how = "bit-identically" if args.rtol == 0.0 else f"within rtol={args.rtol:g}"
        print(f"all {len(selected)} golden traces match {directory} {how}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    with _user_input():
        filters = _parse_axis_pairs(args.filter, "--filter")
    store = ResultStore(args.store)
    if not len(store):
        print(f"store {args.store!r} is empty", file=sys.stderr)
        return 1

    if args.baseline:
        relative = store.relative_to_baseline(
            args.baseline, value=args.value, group_by=tuple(args.group_by), **filters
        )
        rows = []
        for group in sorted(relative, key=str):
            for method, ratio in relative[group].items():
                label = ", ".join(f"{axis}={value}" for axis, value in zip(args.group_by, group))
                rows.append((label, method, f"{ratio:.3f}"))
        print(
            format_table(
                ("group", "method", f"{args.value} / {args.baseline}"),
                rows,
            )
        )
        return 0

    header, rows = store.pivot(args.rows, args.cols, value=args.value, **filters)
    print(format_table(header, rows))
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, sweep and report PacTrain reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one experiment cell")
    run.add_argument("--model", default="resnet18")
    run.add_argument("--method", default="all-reduce",
                     help="method name, compressor registry name or codec spec")
    run.add_argument("--bandwidth", default="1Gbps")
    run.add_argument("--world-size", type=int, default=8, dest="world_size")
    run.add_argument("--epochs", type=int, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--target-accuracy", type=float, default=None, dest="target_accuracy")
    run.add_argument("--max-iterations-per-epoch", type=int, default=None,
                     dest="max_iterations_per_epoch")
    run.add_argument("--dataset-samples", type=int, default=None, dest="dataset_samples")
    run.add_argument("--regime", default=None, metavar="SPEC",
                     help="training regime / sync schedule: 'sync' (default), "
                          "'localsgd:H' (H local steps per averaging round), "
                          "'localsgd:H:delta' (compressed model-delta sync), or "
                          "'ps:S' (async parameter server, staleness bound S)")
    run.add_argument("--set", action="append", metavar="AXIS=VALUE",
                     help="extra axis override (repeatable), e.g. --set overlap=true")
    run.add_argument("--store", default=None, help="optional result store to cache into")
    run.add_argument("--json", action="store_true", help="print the full result as JSON")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record an observability trace: Chrome Trace Event JSON at "
                          "PATH (+ raw events at PATH.jsonl), or raw events only when "
                          "PATH ends in .jsonl")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="execute a campaign spec file")
    sweep.add_argument("spec", help="campaign spec (.json, or .toml on Python 3.11+)")
    sweep.add_argument("--store", default=None,
                       help="result store path (default: spec's 'store' key, else "
                            "campaign_results/<name>.jsonl)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process; 0 = one per CPU)")
    sweep.add_argument("--recompute", action="store_true",
                       help="ignore cached results and retrain every cell")
    sweep.add_argument("--retries", type=int, default=2,
                       help="max retries per cell for transient failures (worker "
                            "deaths, runtime errors); deterministic errors are "
                            "never retried (default: 2)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-cell watchdog: a pooled cell running past this "
                            "settles with status 'timeout' and its worker is "
                            "recycled (default: no timeout)")
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="record an observability trace of the sweep (workers "
                            "append to the same event stream; see run --trace)")
    sweep.add_argument("--quiet", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="query and pivot a result store")
    report.add_argument("--store", required=True)
    report.add_argument("--rows", default="model", help="row axis (default: model)")
    report.add_argument("--cols", default="method", help="column axis (default: method)")
    report.add_argument("--value", default="simulated_time",
                        help="result metric (e.g. tta_or_total, final_accuracy, comm_time)")
    report.add_argument("--baseline", default=None,
                        help="method name to normalise against (relative-TTA style report)")
    report.add_argument("--group-by", nargs="+", default=["model", "bandwidth_mbps"],
                        dest="group_by", help="grouping axes for --baseline reports")
    report.add_argument("--filter", action="append", metavar="AXIS=VALUE",
                        help="only records matching this axis value (repeatable)")
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser("trace", help="report on / validate a recorded trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report", help="print the summary tables of a trace (.jsonl event stream)")
    trace_report.add_argument("path", help="raw event stream (PATH.jsonl of a --trace run)")
    trace_report.set_defaults(func=cmd_trace)
    trace_validate = trace_sub.add_parser(
        "validate", help="check Chrome Trace Event structure (fields, nesting, order)")
    trace_validate.add_argument("path", help="Chrome trace JSON, or .jsonl to convert first")
    trace_validate.add_argument("--quiet", action="store_true")
    trace_validate.set_defaults(func=cmd_trace)
    trace_convert = trace_sub.add_parser(
        "convert", help="convert a raw .jsonl event stream to Chrome trace JSON")
    trace_convert.add_argument("path", help="raw event stream (.jsonl)")
    trace_convert.add_argument("out", help="Chrome trace JSON destination")
    trace_convert.set_defaults(func=cmd_trace)

    golden = sub.add_parser("golden", help="verify or regenerate golden-trace fixtures")
    golden.add_argument("--update", action="store_true",
                        help="rewrite the fixtures from fresh runs instead of verifying")
    golden.add_argument("--dir", default=None,
                        help="fixture directory (default: tests/golden)")
    golden.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for verification "
                             "(default 0.0 = bit-identical)")
    golden.add_argument("--only", nargs="+", default=None, metavar="METHOD",
                        help="verify (or with --update, rewrite) only these "
                             "golden methods (default: all of them)")
    golden.add_argument("--trace", metavar="PATH", default=None,
                        help="record an observability trace of the verification "
                             "runs (tracing must not change the numbers)")
    golden.add_argument("--quiet", action="store_true")
    golden.set_defaults(func=cmd_golden)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", None) == 0:
        args.jobs = None  # run_campaign resolves None to one worker per CPU
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
