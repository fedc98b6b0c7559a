"""``benchmarks/reach.py`` on a small package: keys, coverage, arms, the checks, the tracer.

The CI job runs the tracer on the real product path; these pin how it lists,
keys and reports defs on a package written for the test, so each rule is
checked without a minute-long run.  Every trace runs in a child interpreter
(:func:`in_child`).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "benchmarks"))
import reach  # noqa: E402

PACKAGE_NAME = "reach_sample"

SAMPLE = '''\
import functools
import threading


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


def at_import():
    return 1


AT_IMPORT = at_import()


class Box:
    @staticmethod
    @deco
    def decorated():
        return 2

    def never(self):
        def inner():
            return None
        return inner

    class Inner:
        def method(self):
            return None


class Boxy:
    def method(self):
        return None


def in_thread():
    return 3


def run():
    Box.decorated()
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join()
    return branches(1)


def branches(x):
    """A docstring runs no line."""
    if x > 5:
        x = -x
        return x
    elif x < 0:
        raise ValueError(x)
    for item in range(x):
        x += item
    else:
        x += 1
    try:
        x += 1
    except TypeError:
        x = 0
    return x


if AT_IMPORT:
    def conditional():
        return None
'''


@pytest.fixture
def package(tmp_path):
    """``reach_sample/`` with one module, in ``tmp_path``."""
    root = tmp_path / PACKAGE_NAME
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(SAMPLE)
    return root


def in_child(code: str, *pythonpath: pathlib.Path) -> str:
    """Run ``code`` in a fresh interpreter that imports ``reach`` and ``repro``; its stdout.

    The tracer never runs in the test process: its hook would replace this
    process's own tracer (a coverage run's), and a package imported before
    the hook goes in reads as never entered.
    """
    paths = [ROOT / "benchmarks", reach.PACKAGE.parent, *pythonpath]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def script(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def sample_line(text: str) -> int:
    """The 1-based line of ``SAMPLE`` that starts with ``text`` (indent ignored)."""
    return next(i for i, line in enumerate(SAMPLE.splitlines(), 1) if line.strip().startswith(text))


def test_list_defs_keys_nested_decorated_and_conditional_defs(package):
    defs = reach.list_defs(package)
    assert set(defs) == {
        "mod.py:deco", "mod.py:deco.<locals>.wrapper", "mod.py:at_import",
        "mod.py:Box.decorated", "mod.py:Box.never", "mod.py:Box.never.<locals>.inner",
        "mod.py:Box.Inner.method", "mod.py:Boxy.method", "mod.py:in_thread", "mod.py:run",
        "mod.py:branches", "mod.py:conditional",
    }
    decorated = defs["mod.py:Box.decorated"]
    assert decorated.first_line == sample_line("@staticmethod")
    assert decorated.lines == 4  # two decorators, the def and its body
    assert defs["mod.py:Box.never.<locals>.inner"].parent == "mod.py:Box.never"
    assert defs["mod.py:Box.Inner.method"].parent is None


def test_covers_a_def_a_class_and_a_module_file(package):
    defs = reach.list_defs(package)
    method = defs["mod.py:Box.Inner.method"]
    assert reach.covers("mod.py", method)
    assert reach.covers("mod.py:Box", method)
    assert reach.covers("mod.py:Box.Inner.method", method)
    assert not reach.covers("other.py", method)
    assert not reach.covers("mod.py:Box", defs["mod.py:Boxy.method"])  # a prefix is not a class


def test_never_entered_reports_only_the_outermost(package):
    defs = reach.list_defs(package)
    missed = reach.never_entered(defs, set())
    assert "mod.py:Box.never" in missed and "mod.py:Box.never.<locals>.inner" not in missed
    missed = reach.never_entered(defs, {"mod.py:Box.never"})
    assert "mod.py:Box.never.<locals>.inner" in missed and "mod.py:Box.never" not in missed


def test_check_names_an_unledgered_miss_and_a_stale_entry(package):
    defs = reach.list_defs(package)
    entered = set(defs) - {"mod.py:Box.never", "mod.py:Box.never.<locals>.inner", "mod.py:conditional"}
    ledger = {"mod.py:Box.never": "error: a test reason", "mod.py:run": "error: stale"}
    assert reach.check(defs, entered, ledger) == [
        "never entered, not in the ledger: mod.py:conditional (2 lines)",
        "stale ledger entry mod.py:run: entered mod.py:run",
    ]
    assert reach.check(defs, entered, {"mod.py:Box.never": "r", "mod.py:conditional": "r"}) == []


def test_trace_enters_import_time_decorated_and_thread_code(package, tmp_path):
    entry = script(tmp_path, "entry.py", f"""\
        import {PACKAGE_NAME}.mod
        {PACKAGE_NAME}.mod.run()
        print("swallowed")
        """)
    out = in_child(f"""\
        import json, pathlib, reach
        run = reach.trace([[{entry!r}]], package=pathlib.Path({str(package)!r}))
        print(json.dumps([sorted(run.entered), sorted(run.executed["mod.py"])]))
        """, package.parent)
    entered, executed = json.loads(out)
    assert set(entered) == {
        "mod.py:deco", "mod.py:deco.<locals>.wrapper", "mod.py:at_import",
        "mod.py:Box.decorated", "mod.py:in_thread", "mod.py:run", "mod.py:branches",
    }
    assert sample_line("AT_IMPORT = at_import()") in executed  # import time
    assert sample_line("return 3") in executed  # the thread
    assert sample_line("x = -x") not in executed and sample_line("x += item") in executed


def test_an_arm_is_a_never_run_run_of_statements_that_does_not_end_in_raise(package):
    """``branches(1)``: the ``if`` body and the handler never run; the
    ``elif`` body does not either, but it ends in ``raise``."""
    defs = reach.list_defs(package)
    ran = set(range(1, len(SAMPLE.splitlines()) + 1))
    ran -= {sample_line(text) for text in ("x = -x", "raise ValueError(x)", "x = 0", '"""A docstring')}
    ran.remove(sample_line("x = -x") + 1)  # the first ``return x``
    run = reach.Run({"mod.py:branches", "mod.py:run"}, {"mod.py": ran})
    assert reach.never_run_arms(defs, run) == [
        reach.Arm("mod.py:branches | x = -x", "mod.py:branches", "x = -x", 2),
        reach.Arm("mod.py:branches | x = 0", "mod.py:branches", "x = 0", 1),
    ]
    ran.remove(sample_line("x += 1"))  # the loop's else
    arms = reach.never_run_arms(defs, reach.Run({"mod.py:branches"}, {"mod.py": ran}))
    assert [arm.key for arm in arms] == [
        "mod.py:branches | x = -x", "mod.py:branches | x += 1", "mod.py:branches | x = 0",
    ]


def test_a_failing_entry_raises_and_the_hooks_are_restored(package, tmp_path):
    entry = script(tmp_path, "fails.py", "import sys\nsys.exit(3)\n")
    out = in_child(f"""\
        import os, pathlib, sys, threading, reach
        hooks, argv, cwd = (sys.gettrace(), threading.gettrace()), list(sys.argv), os.getcwd()
        try:
            reach.trace([[{entry!r}]], package=pathlib.Path({str(package)!r}))
        except RuntimeError as error:
            print(error)
        assert (sys.gettrace(), threading.gettrace()) == hooks
        assert (sys.argv, os.getcwd()) == (argv, cwd)
        """, package.parent)
    assert out == f"{entry} exited with status 3\n"


def test_main_writes_both_sets_and_exits_1_naming_each_problem(monkeypatch, tmp_path, capsys):
    defs = reach.list_defs()
    missed = {"tensorlib/tensor.py:_consumed", "obs/tracer.py:Tracer.finish"}
    # Every line ran but the early ``return mask`` of magnitude_mask: one arm.
    d = defs["pruning/magnitude.py:magnitude_mask"]
    early = min((s for s in ast.walk(d.node) if isinstance(s, ast.Return)), key=lambda s: s.lineno)
    executed = {path: set(range(1, 10_000)) for path in {d.path for d in defs.values()}}
    executed[d.path] -= set(range(early.lineno, early.end_lineno + 1))
    arm = "pruning/magnitude.py:magnitude_mask | return mask"
    monkeypatch.setattr(reach, "trace", lambda path, progress=None: reach.Run(set(defs) - missed, executed))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(reach, "load_ledger", lambda: ({"tensorlib/tensor.py:_consumed": "error: r"}, {}))
    out = tmp_path / "reach.json"
    assert reach.main(["--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["never_entered"] == {key: defs[key].lines for key in sorted(missed)}
    assert report["never_entered_lines"] == sum(defs[key].lines for key in missed)
    assert (report["defs"], report["entered"]) == (len(defs), len(defs) - 2)
    assert (report["never_run_arms"], report["arms"], report["arm_lines"]) == ({arm: 1}, 1, 1)
    printed = capsys.readouterr().out
    assert f"{len(defs)} defs" in printed and "1 never-run arms in 1 entered defs (1 source lines)" in printed
    assert "never entered, not in the ledger: obs/tracer.py:Tracer.finish" in printed
    assert f"never run, not in the ledger: {arm} (1 lines)" in printed
    assert "_consumed" not in printed
    monkeypatch.setattr(reach, "load_ledger", lambda: (dict.fromkeys(missed, "error: r"), {arm: "input: r"}))
    assert reach.main([]) == 0
    monkeypatch.setattr(reach, "load_ledger", lambda: (dict.fromkeys(missed, "error: r"), {d.key: "input: r"}))
    assert reach.main([]) == 0


def test_check_arms_names_an_unledgered_arm_and_a_stale_key():
    arms = [reach.Arm("mod.py:f | x = 0", "mod.py:f", "x = 0", 1),
            reach.Arm("mod.py:g | return", "mod.py:g", "return", 2)]
    assert reach.check_arms(arms, {"mod.py:f": "input: r", "mod.py:h | y = 1": "input: r"}) == [
        "never run, not in the ledger: mod.py:g | return (2 lines)",
        "stale ledger entry mod.py:h | y = 1: covers no never-run arm",
    ]
    assert reach.check_arms(arms, {"mod.py:f | x = 0": "r", "mod.py:g": "r"}) == []
    assert not reach.arm_covers("mod.py:f | x = 1", arms[0])
    assert not reach.arm_covers("mod.py:ff", arms[0])


def test_every_product_path_file_exists():
    files = [arg.split("{root}/", 1)[1] for argv in reach.PRODUCT_PATH for arg in argv if "{root}/" in arg]
    assert files and [name for name in files if not (ROOT / name).is_file()] == []


def test_product_path_sweeps_run_in_this_process():
    """The ``pool:`` tag means pool-worker code is never entered: every sweep runs ``--jobs 1``."""
    sweeps = [argv for argv in reach.PRODUCT_PATH if argv[:2] == ["repro", "sweep"]]
    assert sweeps and [argv for argv in sweeps if argv[argv.index("--jobs") + 1] != "1"] == []
