"""Seeded edits of the de-en demo inputs end in a documented exit code and, on an error, one line.

Each case copies demos/data, applies one or two edits to one input file
and runs `score` or `evaluate` through `cli.main`.  The edits are what
hand-made files go wrong with: a line or field dropped, repeated or cut
short; a cell replaced by ``nan``, ``inf``, ``1e400`` or nothing; a
byte-order mark; a carriage return.  Whatever the edit, the run must exit
0, 1 or 2 and print no traceback, a configuration or data error must be
reported on one line, and a data error must name the edited file.
`RECORD_CHECKS` adds one directed edit for each check a record runs on
its fields as it is built (a segment's id, texts, judgements and tags; a
dataset's ids and language pair; the WordPiece vocabulary's unknown
token; the metric config's metric list), and each must end the run in
its own one-line message.

The JSON inputs, the run config and a JSON copy of the dataset, also get
edits of their structure: a value of another type, an integer past
Python's digit limit, deep nesting, a repeated key, or a list element of
another type.  The same rule holds for them.
"""

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from mteval.cli import main

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
CASES = 100
#: The inputs of run_deen.json, with the separator of their fields
FILES = {"deen.tsv": "\t", "deen_external.tsv": "\t", "vectors.txt": " ", "wordpiece.txt": " ", "run_deen.json": " "}
VALUES = ("nan", "inf", "-inf", "1e400", "")
KINDS = ("drop line", "repeat line", "cut line", "drop field", "repeat field", "cut field", "value", "bom", "cr")
ERRORS = ("configuration error: ", "data error: ")


def edit(text: str, sep: str, rng: random.Random) -> tuple[str, str]:
    """``text`` with one seeded edit, and the edit's description."""
    kind = rng.choice(KINDS)
    if kind == "bom":
        return "\ufeff" + text, kind
    lines = text.split("\n")
    i = rng.randrange(len(lines) - 1)  # the text ends in a newline, so the last entry is empty
    line = lines[i]
    if kind == "drop line":
        del lines[i]
    elif kind == "repeat line":
        lines.insert(i, line)
    elif kind == "cut line":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif kind == "cr":
        lines[i] = line + "\r"
    else:
        fields = line.split(sep)
        j = rng.randrange(len(fields))
        if kind == "drop field":
            del fields[j]
        elif kind == "repeat field":
            fields.insert(j, fields[j])
        elif kind == "cut field":
            fields[j] = fields[j][: rng.randrange(len(fields[j]) + 1)]
        else:
            fields[j] = rng.choice(VALUES)
            kind = f"value {fields[j]!r}"
        lines[i] = sep.join(fields)
    return "\n".join(lines), f"{kind} at line {i + 1}"


def run(data: Path, command: str) -> tuple[int, str]:
    """(exit code, stderr) of ``command`` on run_deen.json in ``data``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(data / "run_deen.json"), "--out", str(data / "out")])
    return code, err.getvalue()


def run_case(case: int, root: Path) -> tuple[str, str, int, str]:
    """(the edited file, what was edited, exit code, stderr) of one seeded case."""
    rng = random.Random(case)
    data = root / f"case{case}"
    shutil.copytree(DEMO_DATA, data)
    name = rng.choice(sorted(FILES))
    text = (data / name).read_text(encoding="utf-8")
    edits = []
    for _ in range(rng.choice((1, 1, 2))):
        text, description = edit(text, FILES[name], rng)
        edits.append(description)
    (data / name).write_text(text, encoding="utf-8", newline="")
    command = rng.choice(("score", "evaluate"))
    return name, f"case {case}: {command}, {name}: {'; '.join(edits)}", *run(data, command)


def problems(code: int, stderr: str) -> list[str]:
    """What breaks the rule: exit 0, 1 or 2, no traceback, and one line for each error.

    Log lines aside, a failed run prints one line, starting with the prefix
    of its exit code.  A configuration error that lists several problems
    ends that line with a colon and gives one indented line to each.
    """
    found = []
    if code not in (0, 1, 2):
        found.append(f"exit code {code}")
    if "Traceback" in stderr:
        found.append("a traceback")
    report = [line for line in stderr.splitlines() if not line.startswith(("WARNING ", "INFO "))]
    if code == 0 and report:
        found.append("more than log lines on success")
    if code in (1, 2):
        listed = code == 1 and bool(report) and report[0].endswith(":")
        if not report or not report[0].startswith(ERRORS[code - 1]):
            found.append(f"exit {code} without a line starting {ERRORS[code - 1]!r}")
        elif bool(report[1:]) != listed or not all(line.startswith("  - ") for line in report[1:]):
            found.append("not one line for each error")
    return found


def test_seeded_edits_of_the_demo_inputs_exit_cleanly_with_one_line(tmp_path):
    codes, failures = [], []
    for case in range(CASES):
        name, what, code, stderr = run_case(case, tmp_path)
        codes.append(code)
        found = problems(code, stderr)
        if code == 2 and name not in stderr:
            found.append("a data error that does not name the edited file")
        if found:
            failures.append(f"{what}: {', '.join(found)}\n{stderr}")
    assert failures == []
    # the edits reach both kinds of error and leave some runs working
    assert {0, 1, 2} <= set(codes)


JSON_CASES = 40
#: Values a structure edit writes, as JSON text; no nonempty string, so no edit names another file
JSON_VALUES = ("null", "true", "0", "-7", "2.5", '""', "[]", "{}", "[0]", '{"": 0}')
JSON_KINDS = ("type", "long integer", "deep nesting", "repeated key", "list element")


class Raw(str):
    """JSON text that `dump` writes as it is."""


def dump(value) -> str:
    """The JSON text of ``value``, with `Raw` texts as they are and a key ``(k,)`` written as ``k``: a repeated key."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        pairs = (f"{json.dumps(key if isinstance(key, str) else key[0])}: {dump(item)}" for key, item in value.items())
        return "{" + ", ".join(pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def slots(value):
    """Every (container, key) below a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in list(items):
        yield value, key
        yield from slots(item)


def edit_structure(document, rng: random.Random) -> str:
    """One seeded structure edit of the parsed JSON ``document``, in place, and the edit's description."""
    kind = rng.choice(JSON_KINDS)
    containers = [container for container, _ in slots(document)]
    if kind == "repeated key":
        target = rng.choice([c for c in containers if isinstance(c, dict)])
        key = rng.choice(list(target))
        target[(key,)] = Raw(rng.choice((dump(target[key]),) + JSON_VALUES))
        return f"{kind} {key!r}"
    if kind == "list element":
        target = rng.choice([c for c in containers if isinstance(c, list)])
        target.insert(rng.randrange(len(target) + 1), Raw(rng.choice(JSON_VALUES)))
        return kind
    target, key = rng.choice(list(slots(document)))
    if kind == "long integer":
        target[key] = Raw("1" + "0" * 5000)
    elif kind == "deep nesting":
        target[key] = Raw("[" * 100_000 + "]" * 100_000)
    else:
        target[key] = Raw(rng.choice(JSON_VALUES))
        kind = f"{kind} {target[key]}"
    return f"{kind} at {key!r}"


def json_dataset(data: Path) -> list[dict]:
    """The records of deen.tsv in ``data``, without its empty fields and with judgements as lists of numbers."""
    header, *lines = (data / "deen.tsv").read_text(encoding="utf-8").splitlines()
    records = [{column: value for column, value in zip(header.split("\t"), line.split("\t")) if value} for line in lines]
    for record in records:
        record["judgements"] = json.loads(f"[{record['judgements']}]")
    return records


def run_json_case(case: int, root: Path) -> tuple[str, str, int, str]:
    """(the edited file, what was edited, exit code, stderr) of one seeded structure case; the config reads deen.json."""
    rng = random.Random(case)
    data = root / f"json{case}"
    shutil.copytree(DEMO_DATA, data)
    documents = {"run_deen.json": json.loads((data / "run_deen.json").read_text(encoding="utf-8")), "deen.json": json_dataset(data)}
    documents["run_deen.json"]["dataset"] = "deen.json"
    name = rng.choice(sorted(documents))
    edits = [edit_structure(documents[name], rng) for _ in range(rng.choice((1, 1, 2)))]
    for file, document in documents.items():
        (data / file).write_text(dump(document), encoding="utf-8")
    command = rng.choice(("score", "evaluate"))
    return name, f"json case {case}: {command}, {name}: {'; '.join(edits)}", *run(data, command)


def test_seeded_structure_edits_of_the_json_inputs_exit_cleanly_with_one_line(tmp_path):
    codes, failures = set(), []
    for case in range(JSON_CASES):
        name, what, code, stderr = run_json_case(case, tmp_path)
        codes.add(code)
        found = problems(code, stderr)
        # a dataset whose ids changed no longer matches the external scores, and that check names their file
        if code == 2 and name not in stderr and "deen_external.tsv: external column" not in stderr:
            found.append("a data error that does not name the edited file")
        if found:
            failures.append(f"{what}: {', '.join(found)}\n{stderr}")
    assert failures == []
    assert {0, 1, 2} <= codes


#: One edit per check a record runs on its fields as it is built: (file, text, its replacement, exit code, message)
RECORD_CHECKS = {
    "empty-id": ("deen.tsv", "deen01a\t", "\t", 2, "deen.tsv:2: segment id must be nonempty"),
    "empty-hypothesis": ("deen.tsv", "\tthe dog sleeps\t", "\t\t", 2, "deen.tsv:3: segment 'deen01b': hypothesis must be nonempty"),
    "nan-judgement": ("deen.tsv", "\t94,90\t", "\t94,nan\t", 2, "deen.tsv:2: segment 'deen01a': non-finite judgement nan"),
    "tag-count": ("deen.tsv", "VERB\tDET NOUN VERB\t", "VERB\tDET NOUN\t", 2, "pos_reference has 2 tags for 3 whitespace tokens"),
    "duplicate-id": ("deen.tsv", "deen01b\t", "deen01a\t", 2, "deen.tsv:3: duplicate segment id 'deen01a' in dataset 'deen'"),
    "mixed-pair": (
        "deen.tsv", "deen01b\tde\ten", "deen01b\tde\tfr", 2,
        "deen.tsv:3: dataset 'deen' mixes language pairs: [('de', 'en'), ('de', 'fr')]",
    ),
    "no-unk": ("wordpiece.txt", "[UNK]\n", "", 2, "unknown-token '[UNK]' missing from the vocabulary"),
    "metric-twice": ("run_deen.json", '"bleu", "compositionality"', '"bleu", "bleu"', 1, "  - metric 'bleu' enabled twice"),
}


@pytest.mark.parametrize("check", sorted(RECORD_CHECKS))
def test_a_record_check_ends_the_run_in_its_one_line_message(tmp_path, check):
    name, old, new, code, message = RECORD_CHECKS[check]
    data = tmp_path / "data"
    shutil.copytree(DEMO_DATA, data)
    text = (data / name).read_text(encoding="utf-8")
    assert old in text
    (data / name).write_text(text.replace(old, new, 1), encoding="utf-8")
    got, stderr = run(data, "score")
    assert (got, problems(got, stderr)) == (code, [])
    assert any(line.endswith(message) for line in stderr.splitlines()), stderr


def test_the_checks_see_each_fault():
    assert problems(0, "") == []
    assert problems(0, "WARNING mteval.embeddings: duplicate token 'x'\n") == []
    assert problems(2, "data error: deen.tsv:3: non-finite judgement nan\n") == []
    assert problems(1, "configuration error: run.json: invalid configuration:\n  - a\n  - b\n") == []
    assert problems(3, "internal error: boom\n") == ["exit code 3"]
    assert problems(1, "Traceback (most recent call last):\nconfiguration error: x\n") == [
        "a traceback",
        "exit 1 without a line starting 'configuration error: '",
    ]
    assert problems(2, "data error: first\nsecond\n") == ["not one line for each error"]
    assert problems(2, "data error: a:\n  - b\n") == ["not one line for each error"]
    assert problems(1, "configuration error: x:\n") == ["not one line for each error"]
    assert problems(1, "configuration error: x\n  - y\n") == ["not one line for each error"]
    assert problems(1, "data error: x\n") == ["exit 1 without a line starting 'configuration error: '"]
    assert problems(0, "configuration error: x\n") == ["more than log lines on success"]
