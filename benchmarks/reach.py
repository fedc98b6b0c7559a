"""Which functions, and which arms of the functions it enters, does the product never run?

Runs the product path (:data:`PRODUCT_PATH`: the README's commands, the
example campaigns and examples, one cell per paper model) in this process
under one ``sys.settrace`` / ``threading.settrace`` hook that is installed
*before* ``repro`` is imported, so code that only runs at import time counts.
The hook records every code object called and every line executed in
``src/repro``; both verdicts come from that one run:

* **Defs.** Every ``def`` under ``src/repro`` is listed by AST and keyed
  ``path:Qual.name`` (``path`` relative to ``src/repro``, the qualified name
  as Python spells it, ``<locals>`` included).  A def is *never entered*
  when no code object starting at its first line (the first decorator's, as
  ``co_firstlineno`` counts it) was called; only the outermost of a nest of
  never-entered defs is reported.
* **Arms.** Inside an entered def, a statement *ran* when a line of its span
  executed (a docstring, ``global`` and ``nonlocal`` emit no line and are
  skipped; a nested def or class is one statement, its body is its own).
  An *arm* is a maximal run of consecutive statements of one block (the def
  body, or the body of an ``if``/``else``, loop, ``try``/``except``/
  ``finally``, ``with`` or ``case``) that never ran while the statement
  holding the block did.  It is keyed ``path:Qual.name | text``, ``text``
  being the stripped first source line of its first statement, never a line
  number.  An arm whose last statement is a ``raise`` is an error path and
  is not reported.

    python benchmarks/reach.py [--out reach.json]

The never-entered defs are compared with ``LEDGER`` and the never-run arms
with ``ARMS``, both in ``tests/test_reach_ledger.py``: the script prints
each def or arm no ledger key covers and each stale key (a ``LEDGER`` key
that covers an entered def, an ``ARMS`` key that covers no never-run arm),
and exits 1 if there is any.  A ``LEDGER`` key is a def, a class
(``path:Class``: every def in it) or a module file (``path``: every def in
it); an ``ARMS`` key is a def (every arm in it) or an arm's key.  ``--out``
writes both sets with their source line counts as JSON.

Sweeps run with ``--jobs 1``, so pool-worker code is never entered here;
stores, traces and the regenerated goldens go to a temporary directory, which
is also the working directory while the path runs.  It takes about 40 s on a
2-core host.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LEDGER_FILE = ROOT / "tests" / "test_reach_ledger.py"

_CELL = ["--world-size", "2", "--epochs", "1", "--dataset-samples", "32",
         "--max-iterations-per-epoch", "2", "--set", "pretrain_iterations=2", "--quiet"]

#: The README's fault-plan cell, cached in a store.
_FAULT_RUN = ["repro", "run", "--model", "mlp", "--method", "topk-0.1", "--world-size", "4",
              "--bandwidth", "100Mbps", "--epochs", "3", "--dataset-samples", "48",
              "--max-iterations-per-epoch", "4", "--set", "pretrain_iterations=2",
              "--set", "faults=crash:3@0.002,link:0.5@0.004-0.006,rejoin:3@0.008",
              "--store", "{tmp}/faults.jsonl", "--quiet"]

#: The product path, one argv per entry, run in order.  ``repro`` is
#: ``python -m repro``; a ``.py`` first element is a script run as
#: ``__main__``.  ``{root}`` is the repository and ``{tmp}`` the scratch
#: directory.
PRODUCT_PATH: List[List[str]] = [
    ["repro", "golden", "--quiet"],
    ["repro", "golden", "--quiet", "--trace", "{tmp}/golden.json"],
    ["repro", "golden", "--quiet", "--update", "--dir", "{tmp}/golden"],
    ["repro", "run", "--model", "vit-base-16", "--method", "pactrain", *_CELL],
    ["repro", "run", "--model", "vgg19", "--method", "all-reduce", "--json", *_CELL],
    ["repro", "run", "--model", "resnet152", "--method", "topk-0.01",
     "--trace", "{tmp}/resnet152.json", *_CELL],
    ["repro", "run", "--model", "resnet18", "--method", "pactrain", *_CELL],
    *[_FAULT_RUN] * 2,  # the second run is a hit on the first's stored fault-plan cell
    ["repro", "run", "--model", "mlp", "--method", "topk-0.01", "--regime", "localsgd:4:delta",
     "--world-size", "4", "--bandwidth", "100Mbps", "--epochs", "3", "--dataset-samples", "48",
     "--max-iterations-per-epoch", "4", "--set", "pretrain_iterations=2",
     "--set", "faults=crash:3@0.001,rejoin:3@0.003", "--quiet"],
    # Dense local SGD whose window fills inside an epoch (two batches of 5 of
    # each rank's 9 samples, H = 2), on a pruned model: the in-step sync round,
    # parameter averaging, GSE, the mask re-applied to the averaged weights and
    # an empty window at the epoch end.  The cells above sync only at the
    # epoch-end flush.
    ["repro", "run", "--model", "mlp", "--method", "pactrain", "--regime", "localsgd:2",
     "--world-size", "4", "--epochs", "1", "--dataset-samples", "48",
     "--max-iterations-per-epoch", "4", "--set", "pretrain_iterations=2",
     "--set", "batch_size=5", "--quiet"],
    ["repro", "run", "--model", "mlp", "--method", "dgc-0.01", "--world-size", "4",
     "--epochs", "2", "--dataset-samples", "48", "--max-iterations-per-epoch", "4",
     "--set", "pretrain_iterations=2", "--set", "faults=crash:3@0.001,rejoin:3@0.003", "--quiet"],
    # A stage without rank-indexed state (MaskCompact) keeps Codec.resize_world's
    # default: the crash and the re-join must fall in different iterations.
    ["repro", "run", "--model", "mlp", "--method", "pactrain", "--world-size", "4",
     "--bandwidth", "100Mbps", "--epochs", "3", "--dataset-samples", "48",
     "--max-iterations-per-epoch", "4", "--set", "pretrain_iterations=2",
     "--set", "faults=crash:3@0.0,rejoin:3@0.5", "--quiet"],
    # Driver error feedback around a dense stage subtracts a DensePayload.
    ["repro", "run", "--model", "mlp", "--method", "ef+fp16", *_CELL],
    ["repro", "run", "--model", "mlp", "--method", "topk-0.01", "--regime", "ps:2",
     "--world-size", "4", "--bandwidth", "100Mbps", "--epochs", "2", "--dataset-samples", "48",
     "--max-iterations-per-epoch", "3", "--set", "pretrain_iterations=2", "--quiet"],
    ["repro", "trace", "report", "{tmp}/golden.json.jsonl"],
    ["repro", "trace", "validate", "{tmp}/golden.json", "--quiet"],
    ["repro", "trace", "report", "{tmp}/resnet152.json.jsonl"],
    ["repro", "trace", "validate", "{tmp}/resnet152.json", "--quiet"],
    ["repro", "trace", "convert", "{tmp}/resnet152.json.jsonl", "{tmp}/resnet152-converted.json"],
    ["repro", "sweep", "{root}/examples/campaigns/smoke.json", "--store", "{tmp}/smoke.jsonl",
     "--jobs", "1"],
    ["repro", "report", "--store", "{tmp}/smoke.jsonl", "--rows", "model", "--cols", "method",
     "--value", "simulated_time"],
    ["repro", "sweep", "{root}/examples/campaigns/localsgd_smoke.json",
     "--store", "{tmp}/localsgd.jsonl", "--jobs", "1"],
    ["repro", "report", "--store", "{tmp}/localsgd.jsonl", "--rows", "method",
     "--cols", "bandwidth_mbps", "--value", "simulated_time"],
    ["repro", "sweep", "{root}/examples/campaigns/share_smoke.json",
     "--store", "{tmp}/share.jsonl", "--jobs", "1"],
    ["repro", "report", "--store", "{tmp}/share.jsonl", "--baseline", "all-reduce",
     "--value", "tta_or_total", "--group-by", "model"],
    ["repro", "sweep", "{root}/examples/campaigns/trace_smoke.json",
     "--store", "{tmp}/trace-smoke.jsonl", "--jobs", "1", "--trace", "{tmp}/sweep.json"],
    ["repro", "report", "--store", "{tmp}/trace-smoke.jsonl"],
    ["repro", "sweep", "{root}/examples/campaigns/table1.json",
     "--store", "{tmp}/table1.jsonl", "--jobs", "1"],
    ["repro", "report", "--store", "{tmp}/table1.jsonl", "--baseline", "all-reduce",
     "--value", "tta_or_total", "--group-by", "model"],
    ["repro", "sweep", "{root}/examples/campaigns/fig5.json",
     "--store", "{tmp}/fig5.jsonl", "--jobs", "1"],
    ["repro", "report", "--store", "{tmp}/fig5.jsonl", "--baseline", "all-reduce",
     "--value", "tta_or_total", "--group-by", "model"],
    ["{root}/examples/quickstart.py"],
    ["{root}/examples/custom_compressor.py"],
    ["{root}/examples/fault_study.py"],
    ["{root}/examples/error_feedback_study.py", "--quick"],
    ["{root}/examples/localsgd_study.py", "--quick", "--delta"],
    ["{root}/examples/campaign_quickstart.py", "--jobs", "1"],
]


@dataclass(frozen=True)
class Def:
    """One ``def`` in ``src/repro``."""

    key: str  #: ``path:Qual.name``
    path: str  #: relative to ``src/repro``
    qualname: str
    first_line: int  #: the first decorator's line, or the ``def`` line
    lines: int  #: source lines, decorators included
    parent: Optional[str]  #: key of the enclosing def, if it is nested in one
    node: ast.AST = field(default=None, compare=False, repr=False)  #: its AST
    source: Tuple[str, ...] = field(default=(), compare=False, repr=False)  #: its file's lines


@dataclass(frozen=True)
class Arm:
    """A never-run run of statements inside an entered def."""

    key: str  #: ``path:Qual.name | text``
    def_key: str
    text: str  #: the stripped first source line of its first statement
    lines: int  #: source lines from its first statement to the end of its last


class Run(NamedTuple):
    """What one traced run of the product path executed."""

    entered: Set[str]  #: keys of the defs entered
    executed: Dict[str, Set[int]]  #: path relative to ``src/repro`` -> lines executed


def list_defs(package: Path = PACKAGE) -> Dict[str, Def]:
    """Every ``def`` under ``package`` by AST, keyed ``path:Qual.name``."""
    defs: Dict[str, Def] = {}
    for file in sorted(package.rglob("*.py")):
        path = file.relative_to(package).as_posix()
        text = file.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(file))
        _collect(tree.body, path, "", None, tuple(text.splitlines()), defs)
    return defs


def _collect(body: Iterable[ast.AST], path: str, prefix: str, parent: Optional[str],
             source: Tuple[str, ...], out: dict) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            first = _first_line(node)
            key = f"{path}:{qualname}"
            out[key] = Def(key, path, qualname, first, node.end_lineno - first + 1, parent, node, source)
            _collect(node.body, path, qualname + ".<locals>.", key, source, out)
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, path, prefix + node.name + ".", parent, source, out)
        else:
            for name in ("body", "orelse", "handlers", "finalbody"):
                children = getattr(node, name, None)
                if isinstance(children, list):
                    _collect(children, path, prefix, parent, source, out)


def _first_line(node: ast.AST) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def covers(ledger_key: str, d: Def) -> bool:
    """Whether a ledger key (a def, a class or a module file) covers ``d``."""
    if ":" not in ledger_key:
        return d.path == ledger_key
    path, qualname = ledger_key.split(":", 1)
    return d.path == path and (d.qualname == qualname or d.qualname.startswith(qualname + "."))


def never_entered(defs: Dict[str, Def], entered: set) -> Dict[str, Def]:
    """The outermost defs whose key is not in ``entered``."""
    missed = {key for key in defs if key not in entered}
    return {key: defs[key] for key in sorted(missed) if defs[key].parent not in missed}


def check(defs: Dict[str, Def], entered: set, ledger: Dict[str, str]) -> List[str]:
    """One line per never-entered def no ledger key covers and per stale ledger key."""
    problems = []
    for key, d in never_entered(defs, entered).items():
        if not any(covers(entry, d) for entry in ledger):
            problems.append(f"never entered, not in the ledger: {key} ({d.lines} lines)")
    for entry in ledger:
        hit = sorted(key for key in entered if covers(entry, defs[key]))
        if hit:
            problems.append(f"stale ledger entry {entry}: entered {', '.join(hit)}")
    return problems


# --------------------------------------------------------------------------- #
# Arms
# --------------------------------------------------------------------------- #
def body(d: Def) -> List[ast.stmt]:
    """The statements of ``d``'s body that emit a line: its docstring goes."""
    statements = d.node.body
    if ast.get_docstring(d.node, clean=False) is not None:
        statements = statements[1:]
    return statements


def blocks(statement: ast.stmt) -> List[List[ast.stmt]]:
    """The statement lists a compound statement runs; a nested def or class has none."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    found = [getattr(statement, "body", None)]
    found += [handler.body for handler in getattr(statement, "handlers", ())]
    found += [case.body for case in getattr(statement, "cases", ())]
    found += [getattr(statement, name, None) for name in ("orelse", "finalbody")]
    return [block for block in found if block]


def statement_text(d: Def, statement: ast.stmt) -> str:
    """The stripped first source line of ``statement`` in ``d``: an arm's key text."""
    return d.source[_first_line(statement) - 1].strip()


def never_run_arms(defs: Dict[str, Def], run: Run) -> List[Arm]:
    """The never-run arms of the entered defs that do not end in ``raise``."""
    arms: List[Arm] = []
    for key in sorted(run.entered):
        d = defs[key]
        _arms(d, body(d), run.executed.get(d.path, set()), arms)
    return arms


def _arms(d: Def, block: List[ast.stmt], executed: Set[int], out: List[Arm]) -> None:
    missed: List[ast.stmt] = []
    for statement in [*block, None]:
        if isinstance(statement, (ast.Global, ast.Nonlocal)):
            continue
        if statement is not None and executed.isdisjoint(
                range(_first_line(statement), statement.end_lineno + 1)):
            missed.append(statement)
            continue
        if missed and not isinstance(missed[-1], ast.Raise):
            text = statement_text(d, missed[0])
            out.append(Arm(f"{d.key} | {text}", d.key, text,
                           missed[-1].end_lineno - _first_line(missed[0]) + 1))
        missed = []
        if statement is not None:
            for inner in blocks(statement):
                _arms(d, inner, executed, out)


def arm_covers(ledger_key: str, arm: Arm) -> bool:
    """Whether an ``ARMS`` key (a def, or a def ``|`` an arm's text) covers ``arm``."""
    def_key, _, text = ledger_key.partition(" | ")
    return arm.def_key == def_key and text in ("", arm.text)


def check_arms(arms: List[Arm], ledger: Dict[str, str]) -> List[str]:
    """One line per never-run arm no ledger key covers and per key that covers none."""
    problems = [f"never run, not in the ledger: {arm.key} ({arm.lines} lines)"
                for arm in arms if not any(arm_covers(entry, arm) for entry in ledger)]
    problems += [f"stale ledger entry {entry}: covers no never-run arm"
                 for entry in ledger if not any(arm_covers(entry, arm) for arm in arms)]
    return problems


# --------------------------------------------------------------------------- #
# The tracer
# --------------------------------------------------------------------------- #
def _run_entry(argv: List[str]) -> None:
    if argv[0] == "repro":
        status = importlib.import_module("repro.campaign.cli").main(argv[1:])
    else:
        saved_argv = sys.argv
        sys.argv = list(argv)
        try:
            runpy.run_path(argv[0], run_name="__main__")
            status = 0
        except SystemExit as exit_:
            status = exit_.code
        finally:
            sys.argv = saved_argv
    if status:
        raise RuntimeError(f"{' '.join(argv)} exited with status {status}")


def trace(path: List[List[str]], package: Path = PACKAGE, progress=None) -> Run:
    """Run ``path`` in this process: the keys of the defs entered, the lines executed.

    Call it in a process that has not imported the package yet: code that
    ran at import time before the hook went in reads as never run.  Output
    of the entries is swallowed; a failing entry raises ``RuntimeError``.
    """
    prefix = str(package) + os.sep
    codes: Dict[int, Tuple[object, bool]] = {}
    lines: Dict[str, Set[int]] = {}

    def line_hook(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return line_hook

    def hook(frame, event, arg):
        code = frame.f_code
        seen = codes.get(id(code))
        if seen is None:
            seen = codes[id(code)] = (code, code.co_filename.startswith(prefix))
            if seen[1]:
                lines.setdefault(code.co_filename, set())
        return line_hook if seen[1] else None

    saved_sys_trace, saved_thread_trace = sys.gettrace(), threading.gettrace()
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            for argv in path:
                argv = [arg.format(root=ROOT, tmp=tmp) for arg in argv]
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    _run_entry(argv)
                if progress is not None:
                    progress(argv, time.perf_counter() - start)
        finally:
            sys.settrace(saved_sys_trace)
            threading.settrace(saved_thread_trace)
            os.chdir(saved_cwd)

    defs = list_defs(package)
    by_line = {(d.path, d.first_line): key for key, d in defs.items()}
    entered = set()
    for code, inside in codes.values():
        if inside:
            path_in_package = Path(code.co_filename).relative_to(package).as_posix()
            key = by_line.get((path_in_package, code.co_firstlineno))
            if key is not None:
                entered.add(key)
    executed = {Path(file).relative_to(package).as_posix(): found for file, found in lines.items()}
    return Run(entered, executed)


def load_ledger() -> Tuple[Dict[str, str], Dict[str, str]]:
    """``LEDGER`` and ``ARMS`` of ``tests/test_reach_ledger.py``, whose import loads nothing else."""
    spec = importlib.util.spec_from_file_location("reach_ledger", LEDGER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LEDGER, module.ARMS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the never-entered defs, the never-run arms and their line counts as JSON")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))

    def progress(entry: List[str], seconds: float) -> None:
        print(f"{seconds:6.1f}s  {' '.join(entry)}", file=sys.stderr, flush=True)

    start = time.perf_counter()
    run = trace(PRODUCT_PATH, progress=progress)
    wall = time.perf_counter() - start
    defs = list_defs()
    missed = never_entered(defs, run.entered)
    lines = sum(d.lines for d in missed.values())
    arms = never_run_arms(defs, run)
    arm_lines: Dict[str, int] = {}
    for arm in arms:
        arm_lines[arm.key] = arm_lines.get(arm.key, 0) + arm.lines
    print(f"{len(defs)} defs, {len(run.entered)} entered; {len(missed)} outermost never entered "
          f"({lines} source lines); {len(arms)} never-run arms in "
          f"{len({arm.def_key for arm in arms})} entered defs ({sum(arm_lines.values())} source lines); "
          f"path took {wall:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "defs": len(defs),
                "entered": len(run.entered),
                "never_entered": {key: d.lines for key, d in missed.items()},
                "never_entered_lines": lines,
                "arms": len(arms),
                "arm_lines": sum(arm_lines.values()),
                "never_run_arms": arm_lines,
                "path_seconds": round(wall, 1),
            }, handle, indent=1)
            handle.write("\n")
    ledger, arms_ledger = load_ledger()
    problems = check(defs, run.entered, ledger) + check_arms(arms, arms_ledger)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
