"""Pre-flight check: every README command-line example, run as a whole
process, must print exactly what the README shows.

Examples are the ``$ ...`` lines of the README's fenced blocks; a command
continues while a single quote is open or the line ends in a backslash,
and its expected output runs to the next command or the end of the block.
A trailing ``# exit code N`` comment on the output sets the expected exit
code (0 otherwise).  Output elided with ``...`` (the ``check`` example) is
compared on its ``failure_count`` values only.
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass

_EXIT_COMMENT = re.compile(r"\s+#\s*exit code (\d+)\s*$")
_ECHO_PIPE = re.compile(r"^echo '(?P<stdin>[^']*)'\s*\|\s*conedual (?P<args>.*)$", re.S)


@dataclass(frozen=True)
class Example:
    args: tuple
    stdin: str
    stdout: str
    exit_code: int


def _blocks(text):
    block = None
    for line in text.splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                yield block
                block = None
        elif block is not None:
            block.append(line)


def parse_examples(readme_text):
    examples = []
    for block in _blocks(readme_text):
        i = 0
        while i < len(block):
            if not block[i].startswith("$ "):
                i += 1
                continue
            cmd = block[i][2:]
            i += 1
            while cmd.count("'") % 2 or cmd.endswith("\\"):
                cmd = cmd[:-1] if cmd.endswith("\\") else cmd + "\n"
                cmd += block[i]
                i += 1
            out = []
            while i < len(block) and not block[i].startswith("$ "):
                if block[i].strip():
                    out.append(block[i])
                i += 1
            text = "\n".join(out)
            code = 0
            m = _EXIT_COMMENT.search(text)
            if m:
                code = int(m.group(1))
                text = text[: m.start()]
            m = _ECHO_PIPE.match(cmd.strip())
            if m:
                args, stdin = shlex.split(m.group("args")), m.group("stdin") + "\n"
            else:
                args, stdin = shlex.split(cmd)[1:], ""
            examples.append(Example(tuple(args), stdin, text + "\n", code))
    return examples


def _failure_counts(text):
    return [int(v) for v in re.findall(r'"failure_count":\s*(\d+)', text)]


def run_examples(examples, env):
    """Run each example; returns a list of mismatch descriptions."""
    problems = []
    for ex in examples:
        proc = subprocess.run(
            [sys.executable, "-m", "conedual.cli", *ex.args],
            input=ex.stdin, capture_output=True, text=True, env=env, timeout=120,
        )
        label = "conedual " + " ".join(ex.args)
        if proc.returncode != ex.exit_code:
            problems.append(f"{label}: exit code {proc.returncode}, README says {ex.exit_code}")
        elif "..." in ex.stdout:
            try:
                got = [r["failure_count"] for r in json.loads(proc.stdout)["reports"]]
            except (ValueError, KeyError, TypeError):
                got = None
            if got != _failure_counts(ex.stdout):
                problems.append(f"{label}: failure_count {got}, README says "
                                f"{_failure_counts(ex.stdout)}")
        elif proc.stdout != ex.stdout:
            problems.append(f"{label}: printed {proc.stdout!r}, README says {ex.stdout!r}")
    return problems
