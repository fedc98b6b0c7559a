"""The docs cannot name a command that does not parse.

(a) A line of a fenced ``README.md`` code block, a code span in a ``README.md``
table row, or a line of a CI ``run:`` script that invokes ``python -m repro``
must be accepted by the real argument parser;
(b) wherever a command is only mentioned — README prose, the verify skill,
string literals (docstrings, messages) of ``examples/*.py`` and ``src/repro`` —
the subcommand word after it must exist, an ``a|b|c`` list word by word and
for ``trace`` the word after it too.

``benchmarks/e2e/README.md`` is the one file not scanned: it still describes the
``perf`` subcommand removed in PR 20, and only a benchmark PR may edit it."""

from __future__ import annotations

import argparse
import ast
import re
import shlex
from pathlib import Path

from repro.campaign.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
FENCE = r"(?ms)^```[^\n]*\n(.*?)^```"
INVOCATION = re.compile(r"python3? -m repro\b(.*)")
MENTION = re.compile(r"python3? -m repro\s+([a-z|]+)\b(?:\s+([a-z|]+)\b)?")
SHELL_TAIL = re.compile(r"\s(?:\||>|&&|#)")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _script_lines():
    """README code (fenced blocks and table code spans) and CI scripts, backslash
    and YAML-folded continuations joined."""
    readme = (ROOT / "README.md").read_text()
    fenced = "\n".join(re.findall(FENCE, readme))
    table_code = "\n".join(re.findall(r"`([^`]+)`", "\n".join(re.findall(r"(?m)^\|.*", readme))))
    ci = re.sub(
        r"(?m)^( *)run: >-?\n((?:\1 +\S.*\n)+)",
        lambda match: " ".join(match.group(2).split()) + "\n",
        (ROOT / ".github/workflows/ci.yml").read_text(),
    )
    for text in (fenced, table_code, ci):
        yield from re.sub(r"\\\n\s*", " ", text).splitlines()


def _mention_texts():
    yield "README.md", re.sub(FENCE, "", (ROOT / "README.md").read_text())
    yield "verify skill", (ROOT / ".claude/skills/verify/SKILL.md").read_text()
    for path in sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("src/repro/**/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield str(path.relative_to(ROOT)), node.value


def test_documented_command_lines_parse():
    parser, rejected, seen = build_parser(), [], 0
    for line in _script_lines():
        match = INVOCATION.search(line)
        if match is None:
            continue
        seen += 1
        try:
            parser.parse_args(shlex.split(SHELL_TAIL.split(match.group(1))[0]))
        except SystemExit:
            rejected.append(line.strip())
    assert seen >= 20, "the scan found too few command lines to mean anything"
    assert not rejected, "documented commands the parser rejects:\n" + "\n".join(rejected)


def test_mentioned_commands_exist():
    commands = _subcommands(build_parser())
    unknown = []
    for source, text in _mention_texts():
        for first, second in MENTION.findall(text):
            words = [(word, commands) for word in first.split("|")]
            if first == "trace" and second:
                words += [(word, _subcommands(commands["trace"])) for word in second.split("|")]
            if any(word not in known for word, known in words):
                unknown.append(f"{source}: python -m repro {first} {second}".rstrip())
    assert not unknown, "mentions of subcommands that do not exist:\n" + "\n".join(unknown)
