"""Statements of ``src/switchosc`` that no test, scenario or README command runs.

    python3 scripts/trace_lines.py                 # tests, then scenarios and CLI
    python3 scripts/trace_lines.py tests/test_sliding.py -k slide

In one process, with a ``sys.settrace`` line tracer restricted to
``src/switchosc``, it runs a pytest selection (the arguments, default
``tests``), then ``switchosc reproduce <id> --no-plot`` for every scenario,
then every command of the README's CLI block, each through ``cli.main``.
It prints each command's exit code, and per module the statements that none
of them executed: a statement counts as executed when the tracer saw any line
of it (of its header, for a compound statement).  Everything is written in a
temporary directory, the working directory of the run, which is removed at
the end; no bytecode is written.
"""

from __future__ import annotations

import ast
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "switchosc"


def readme_commands() -> list[list[str]]:
    """The switchosc commands of the README's CLI block, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd, comments=True)
            for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("switchosc ")]


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement that compiles to bytecode.

    A compound statement spans its header only, up to its first body line.
    """
    source = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            if code_lines.intersection(range(node.lineno, max(last, node.lineno) + 1)):
                spans.append((node.lineno, max(last, node.lineno)))
    return sorted(spans)


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(SRC) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    selection = argv or ["tests"]
    pytest_args = []  # paths (and node ids) taken from the repository root
    for arg in selection:
        path, sep, node = arg.partition("::")
        pytest_args.append(str(ROOT / path) + sep + node if (ROOT / path).exists() else arg)
    with tempfile.TemporaryDirectory(prefix="trace_lines_") as tmp:
        os.chdir(tmp)
        os.environ.pop("SWITCHOSC_OUT", None)  # outputs go to ./out in tmp
        import pytest

        sys.settrace(tracer)
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            *pytest_args])
        print(f"pytest {' '.join(selection)}: exit {int(code)}")
        from switchosc import cli, experiments

        sys.settrace(tracer)  # in case a test replaced it
        commands = [["reproduce", sid, "--no-plot"] for sid in experiments.list_scenarios()]
        commands += [cmd[1:] for cmd in readme_commands()]
        for cmd in commands:
            print(f"switchosc {' '.join(cmd)}: exit {cli.main(cmd)}", flush=True)
        sys.settrace(None)
        os.chdir(ROOT)

    total = 0
    for path in sorted(SRC.glob("*.py")):
        hit = seen.get(str(path), set())
        missed = [(lo, hi) for lo, hi in statements(path)
                  if not hit.intersection(range(lo, hi + 1))]
        total += len(missed)
        lines = ", ".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} not executed" + (f": {lines}" if lines else ""))
    print(f"total: {total} statements not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
