"""A seeded fuzz of ``cli.main``: valid request documents, mutated.

The seeds are the request documents of ``OUTCOMES`` in ``test_cli.py`` and
of the README's command-line examples.  A case deletes keys and members,
duplicates members, and swaps in atoms of the wrong type, sign or size.
Whatever the input, a run must exit 0, 1 or 2 with exactly one JSON object
on stdout and nothing on stderr, and no exception may escape ``main``.
The answers themselves are not judged here.
"""

import contextlib
import io
import json
import random
import re
import sys
from pathlib import Path

from conedual.cli import main
from test_cli import OUTCOMES

README = Path(__file__).resolve().parent.parent / "README.md"
# echo '<body>' | conedual <command>, the body possibly over several lines
_EXAMPLE = re.compile(r"echo '(?P<body>[^']*)'\s*\\?\s*\|\s*conedual (?P<command>[\w-]+)")
ATOMS = (-1, True, 1.5, "1/0", "x", [], {}, 10**9, None, "-1", "inf", 0)


def _seeds():
    """``(command, document)`` for every request document of the seeds."""
    seeds = [(argv[0], doc) for argv, doc, _, _ in OUTCOMES if isinstance(doc, dict)]
    for m in _EXAMPLE.finditer(README.read_text(encoding="utf-8")):
        seeds.append((m.group("command"), json.loads(m.group("body"))))
    return seeds


def _containers(doc):
    """Every object and array inside ``doc``, ``doc`` included."""
    found = [doc]
    for value in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (dict, list)):
            found += _containers(value)
    return found


def _mutate(rng, doc):
    """``doc`` with one key or member deleted, duplicated or replaced."""
    doc = json.loads(json.dumps(doc))
    target = rng.choice(_containers(doc))
    if not target:
        return doc
    key = rng.choice(sorted(target) if isinstance(target, dict) else range(len(target)))
    kind = rng.randrange(3)
    if kind == 0:
        del target[key]
    elif kind == 1 and isinstance(target, list):
        target.insert(key, json.loads(json.dumps(target[key])))
    else:
        target[key] = rng.choice(ATOMS)
    return doc


def _run(command, doc):
    """``(exit code, stdout, stderr)`` of ``main`` on the document."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_the_seeds_cover_every_command_that_reads_input():
    commands = {command for command, _ in _seeds()}
    assert commands == {"sep", "interpolate", "dominates", "minkowski", "spec-order",
                        "ss-recover", "mobius"}


def test_mutated_documents_exit_with_one_json_object():
    rng = random.Random(20261019)
    seeds = _seeds()
    codes = set()
    for case in range(1000):
        command, doc = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc)
        try:
            code, out, err = _run(command, doc)
        except BaseException as exc:
            raise AssertionError(f"case {case}: {command} {json.dumps(doc)} raised {exc!r}") from exc
        context = f"case {case}: {command} {json.dumps(doc)}"
        assert code in (0, 1, 2), context
        assert err == "", context
        assert out.endswith("\n") and out.count("\n") == 1, context
        assert isinstance(json.loads(out), dict), context
        codes.add(code)
    assert codes == {0, 1, 2}
