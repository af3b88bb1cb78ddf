"""The README's code runs against the current API, and its tables restate the code's."""

import importlib
import inspect
import itertools
import json
import math
import pkgutil
import re
import sys
from math import inf
from pathlib import Path

import mteval
from mteval.config import _RANGES, _TOP_KEYS, load_run_config
from mteval.ensemble import fit_mlp
from mteval.metrics import METRICS
from mteval.pipeline import _SPACE_PATHS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_table(header: str) -> list[str]:
    """The rows of the README table under ``header``, up to the first line that is not a row."""
    lines = README.splitlines()
    return list(itertools.takewhile(lambda line: line.startswith("|"), lines[lines.index(header) :]))


def test_readme_library_quickstart_runs(monkeypatch, capsys):
    block = re.search(r"Library:\n\n```python\n(.*?)```", README, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the block names demos/data by a path relative to the repository root
    exec(compile(block, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


RESOURCE_NAMES = {
    "static_embeddings": "static embeddings",
    "contextual_records": "contextual records",
    "wordpiece_vocab": "WordPiece vocab",
}
FAMILY_NEEDS = {"compositionality": "part-of-speech tags"}  # what a metric without a term space reads


def test_readme_metrics_table_matches_the_metric_registry():
    groups: dict[tuple[str, str], list[str]] = {}  # one row per (family, term space), its weightings together
    for name, info in METRICS.items():
        groups.setdefault((info.family, info.space), []).append(name)
    rows = ["| name | needs | reference-less modes |", "| --- | --- | --- |"]
    for (family, space), names in groups.items():
        needs = " + ".join(RESOURCE_NAMES[key] for key in _SPACE_PATHS[space]) or FAMILY_NEEDS.get(family, "—")
        reference_less = "no" if METRICS[names[0]].reference_only else "yes"
        rows.append(f"| {', '.join(f'`{name}`' for name in names)} | {needs} | {reference_less} |")
    assert readme_table(rows[0]) == rows


RANGE_TEXTS = {
    (True, 0, sys.maxsize): "integers ≥ 1",
    (False, 0, inf): "finite numbers > 0",
    (False, -inf, inf): "finite numbers",
    (False, 0, 1): "numbers in (0, 1)",
}


def test_readme_run_config_ranges_match_the_validated_ranges():
    keys: dict[str, list[str]] = {text: [] for text in RANGE_TEXTS.values()}
    for section in sorted(_RANGES):
        for name, bounds in _RANGES[section].items():
            keys[RANGE_TEXTS[bounds]].append(f"`{section}.{name}`")
    rows = ["| key | valid values |", "| --- | --- |"]
    rows += [f"| {', '.join(names)} | {text} |" for text, names in keys.items() if names]
    rows += ["| `split.seed` | integers ≥ 0 |", "| `output_dir` | a nonempty path string |"]  # checked outside the table
    assert readme_table(rows[0]) == rows


def test_readme_run_config_example_parses_and_shows_each_default(tmp_path):
    section = README[README.index("## Run config") : README.index("## File formats")]
    example, prose = re.search(r"```json\n(.*?)```(.*)", section, re.S).groups()
    payload = json.loads(example)
    required = {key: payload[key] for key in ("dataset", "mode", "metrics")} | {"split": {"seed": payload["split"]["seed"]}}
    (tmp_path / "shown.json").write_text(example, encoding="utf-8")
    (tmp_path / "bare.json").write_text(json.dumps(required), encoding="utf-8")
    shown, bare = load_run_config(tmp_path / "shown.json"), load_run_config(tmp_path / "bare.json")
    assert shown.metric_config == bare.metric_config  # reg_base, lowercase and similarity.* as their defaults
    assert shown.split_ratio == bare.split_ratio
    assert bare.mlp_options == {} and bare.output_dir is None
    # mlp.* left out take fit_mlp's defaults
    defaults = inspect.signature(fit_mlp).parameters
    assert shown.mlp_options == {name: defaults[name].default for name in _RANGES["mlp"]}
    assert [key for key in sorted(_TOP_KEYS) if key not in payload and f"`{key}`" not in prose] == []


def signature_form(function) -> list[str]:
    """The parameter names of ``function`` as a call form writes them, a bare `*` before the keyword-only ones."""
    form = []
    for parameter in inspect.signature(function).parameters.values():
        if parameter.kind is parameter.KEYWORD_ONLY and "*" not in form:
            form.append("*")
        form.append(parameter.name)
    return form


def test_readme_call_forms_match_the_signatures():
    # every backticked `[module.]name(args)` naming a function of src/mteval, a form that wraps a line included
    functions = {}
    for info in pkgutil.iter_modules(mteval.__path__):
        module = importlib.import_module(f"mteval.{info.name}")
        functions.update(
            (name, (info.name, value))
            for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
        )
    checked = set()
    for match in re.finditer(r"`(?:(\w+)\.)?(\w+)\(([^`()]*)\)`", README):
        module, name, args = match.groups()
        if name not in functions:
            continue
        defined_in, function = functions[name]
        assert module in (None, defined_in), f"{match.group(0)}: {name} is defined in mteval.{defined_in}"
        written = [arg.split("=")[0].strip() for arg in args.split(",")] if args.strip() else []
        signature, form = inspect.signature(function), signature_form(function)
        if written[-1:] == ["**options"]:  # stands for the remaining parameters, each with a default
            written = written[:-1]
            form, rest = form[: len(written)], form[len(written) :]
            no_default = [p for p in rest if p != "*" and signature.parameters[p].default is inspect.Parameter.empty]
            assert no_default == [], f"{match.group(0)}: {name}{signature} has no default for {no_default}"
        assert written == form, f"{match.group(0)}: {name}{signature}"
        checked.add(name)
    expected = ["score_dataset", "reg_base_features", "average_judgements", "evaluate", "ablation", "cross_lingual_eval"]
    expected += ["load_contextual", "decontextualize", "wmd_contextual", "bow_nnx", "bow_nfx", "scm", "wmd"]
    assert checked >= {*expected, "select_model", "fit_mlp", "fit_linear"}, checked
