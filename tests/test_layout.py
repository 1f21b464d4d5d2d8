"""Layout rules of the package, read from its source.

Each refusal rule is stated once, so no refusal message is raised at two sites, and the rules
shared by modules live in ``measures``: a capacity, duplicate or repeat refusal is raised there
and nowhere else. The private helpers of ``society``, ``causal``, ``anonymity`` and ``cli``
stay private to their module: no other module imports one or reaches it as an attribute.
A value's type rule lives in the record or check that owns the value, so no reader of a
document (``cli``, and the ``*from_json*`` and ``load_*`` functions of ``society`` and
``causal``) names ``_integer`` or ``_number``. A name a record refers to resolves through
``measures._known``, so no other module refuses an unknown name itself; ``cli``'s
parser refuses an unknown scenario. Every dataclass of ``society`` is frozen
save the run state, ``Ledger`` and ``SimulationResult``, so a scenario stays as it was checked.
The entity ids are collected once, by ``Society.__post_init__`` into ``Society.index``, and every
other function reads that index rather than rebuilding the ids from ``.entities``.
A command's handler returns what it writes, and ``cli.main`` writes it in one ``cli._emit`` call, so one rule
decides what a failed command leaves. Files are opened only by the reader and the writer of ``measures``, so every
file is UTF-8 and a failed write keeps none; ``csv.writer`` is called only in ``measures.write_csv``, so every CSV
reads back, and ``csv.reader`` only in ``anonymity.read_table``. Its split-read helper, ``_split_columns``, raises
nothing: text it cannot split goes to ``csv.reader``, so every refusal of a table's text is the csv module's or
``Table``'s, whichever path a fast one adds. Text becomes bytes only in ``measures``: no other module reads a
stream's ``buffer`` or calls ``.encode(``, and no module calls ``print``, so stdout and stderr, like every file, are
UTF-8 in any locale (``measures.write_text``).
"""

import ast
import collections
import dataclasses
import inspect
import types
from pathlib import Path

import pytest

import infoflow

SOURCES = sorted(Path(infoflow.__file__).parent.glob("*.py"))
PRIVATE_TO = {"society", "causal", "anonymity", "cli"}
TYPE_RULES = {"_integer", "_number"}
ENTITY_INDEX = ("society", "Society.__post_init__")  # (module, function) of the one collector of the entity ids
OUTPUT_CALLS = {"_emit", "open"}  # the calls of cli that write a command's output
CSV_CALLS = {"reader", "writer"}  # the csv module's calls, each made at one site
SPLIT_READ = "_split_columns"  # the helper of anonymity that splits a table's text without the csv module
BYTES_AT = "measures"  # the one module that reads a stream's buffer or encodes text
RUN_STATE = {"SimulationResult"}  # the dataclasses of society a run changes; a Ledger changes only its cumulative dict


def _unfrozen(module) -> list[str]:
    """The names of the dataclasses defined in ``module`` that are not frozen."""
    return [name for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
            and not cls.__dataclass_params__.frozen]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


TREES = {path.stem: _tree(path) for path in SOURCES}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    return exc.attr if isinstance(exc, ast.Attribute) else None


def _private_uses(tree: ast.Module) -> list[str]:
    """``module._name`` for each private name of a PRIVATE_TO module that ``tree`` imports or reads as an attribute."""
    uses, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("infoflow.").lstrip(".")
            for alias in node.names:
                if module in PRIVATE_TO and alias.name.startswith("_"):
                    uses.append(f"{module}.{alias.name} (line {node.lineno})")
                if module in ("", "infoflow") and alias.name in PRIVATE_TO:
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
                and node.attr.startswith("_")):
            uses.append(f"{bound[node.value.id]}.{node.attr} (line {node.lineno})")
    return uses


def _readers(path: Path) -> list[ast.AST]:
    """The document readers of the module at ``path``: all of ``cli``, and the reading functions of ``society``
    and ``causal``."""
    tree = _tree(path)
    if path.stem == "cli":
        return [tree]
    if path.stem not in ("society", "causal"):
        return []
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and ("from_json" in node.name or node.name.startswith("load_"))]


def _type_rule_uses(tree: ast.AST) -> list[str]:
    """Each place ``tree`` imports, calls or otherwise names a type rule."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
    return [f"{name} (line {line})" for name, line in names if name in TYPE_RULES]


def _messages(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(exception, message, line) of each exception raised in ``tree`` with a literal message; an f-string's
    fields read ``{}``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        text = node.exc.args[0]
        if isinstance(text, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in text.values)
        elif isinstance(text, ast.Constant) and isinstance(text.value, str):
            text = text.value
        else:
            continue
        found.append((_raised_name(node), text, node.lineno))
    return found


def _unknown_refusals(tree: ast.AST) -> list[tuple[str, int]]:
    """(opening text, line) of each ``ValueError`` raised in ``tree`` whose message opens with "unknown "."""
    return [(text.split("{}")[0], line) for exc, text, line in _messages(tree)
            if exc == "ValueError" and text.startswith("unknown ")]


def _repeated_messages(trees: dict[str, ast.AST]) -> dict[str, list[str]]:
    """Each message raised at more than one site of ``trees`` (name -> tree), with its ``name:line`` sites."""
    sites = collections.defaultdict(list)
    for name, tree in trees.items():
        for _, text, line in _messages(tree):
            sites[text].append(f"{name}:{line}")
    return {text: where for text, where in sites.items() if len(where) > 1}


def _repeat_refusals(tree: ast.AST) -> list[tuple[str, int]]:
    """(message, line) of each exception raised in ``tree`` that refuses a duplicate or a repeat."""
    return [(text, line) for _, text, line in _messages(tree)
            if "duplicate" in text.lower() or "repeated" in text.lower()]


def _scoped(node: ast.AST, scope: str = "<module>"):
    """(scope, node) of ``node`` and each node under it; the scope is the function a node is in, dotted by its
    classes, ``<module>`` outside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def _entity_id_collectors(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of each comprehension in ``tree`` whose items, or the members of its tuple items, are the
    ``.id`` of what it iterates over an ``.entities``."""
    found = []
    for scope, node in _scoped(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            over = {name.id for gen in node.generators
                    if any(isinstance(a, ast.Attribute) and a.attr == "entities" for a in ast.walk(gen.iter))
                    for name in ast.walk(gen.target) if isinstance(name, ast.Name)}
            items = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            parts = [part for item in items for part in (item.elts if isinstance(item, ast.Tuple) else [item])]
            if any(isinstance(part, ast.Attribute) and part.attr == "id" and isinstance(part.value, ast.Name)
                   and part.value.id in over for part in parts):
                found.append((scope, node.lineno))
    return found


def _output_calls(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(function, callee, line) of each call in ``tree`` of ``_emit`` or of an ``open``, by name or as an
    attribute (``io.open``, ``path.open``)."""
    found = []
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee in OUTPUT_CALLS:
                found.append((scope, callee, node.lineno))
    return found


def _csv_calls(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(function, callee, line) of each call in ``tree`` of ``csv.reader`` or ``csv.writer``."""
    return [(scope, node.func.attr, node.lineno) for scope, node in _scoped(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in CSV_CALLS
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"]


def _call_sites(trees: dict[str, ast.AST], callee: str) -> set[tuple[str, str]]:
    """(module, function) of each call of ``callee`` in ``trees`` (module name -> tree): ``open``, by name or as an
    attribute, or the csv module's ``reader`` or ``writer``."""
    return {(module, f) for module, tree in trees.items() for f, c, _ in _output_calls(tree) + _csv_calls(tree)
            if c == callee}


def _stream_bytes(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(function, what, line) of each read of a ``buffer`` attribute in ``tree``, by name or by ``getattr``, and
    each call of ``print`` or of an ``encode`` method."""
    found = []
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Attribute) and node.attr == "buffer":
            found.append((scope, "buffer", node.lineno))
        elif isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee in ("print", "encode"):
                found.append((scope, callee, node.lineno))
            elif callee == "getattr" and any(isinstance(a, ast.Constant) and a.value == "buffer" for a in node.args):
                found.append((scope, "buffer", node.lineno))
    return found


def _raises_in(tree: ast.AST, function: str) -> list[int] | None:
    """The line of each ``raise`` in the function ``function`` of ``tree``, or None if ``tree`` has no such function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Raise)]
    return None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_capacity_errors_are_raised_only_in_measures(path):
    raised = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Raise) and n.exc is not None
              and _raised_name(n) == "CapacityError"]
    assert path.name == "measures.py" or raised == [], f"CapacityError raised at lines {raised}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_helpers(path):
    assert _private_uses(_tree(path)) == []


def test_the_guard_sees_both_forms_of_use():
    tree = ast.parse("from .society import _check_id\nfrom . import society as s\ns._number(1, 'x')\n")
    assert _private_uses(tree) == ["society._check_id (line 1)", "society._number (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_readers_leave_type_rules_to_the_records(path):
    assert [use for reader in _readers(path) for use in _type_rule_uses(reader)] == []


def test_the_type_rule_guard_sees_imports_calls_and_references():
    tree = ast.parse("from .measures import _number\nm._integer(1, 'x')\nconvert = {'k': _number}\n")
    assert _type_rule_uses(tree) == ["_number (line 1)", "_integer (line 2)", "_number (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_unknown_names_are_refused_only_in_measures(path):
    assert path.name == "measures.py" or _unknown_refusals(_tree(path)) == []


def test_the_membership_guard_sees_plain_and_formatted_messages():
    tree = ast.parse('raise ValueError(f"unknown node {n!r}")\nraise ValueError("unknown role")\n'
                     'raise KeyError("unknown x")\nraise ValueError(f"{n} is unknown")\n')
    assert _unknown_refusals(tree) == [("unknown node ", 1), ("unknown role", 2)]


def test_no_refusal_message_is_raised_at_two_sites():
    assert _repeated_messages({path.name: _tree(path) for path in SOURCES}) == {}


def test_the_message_guard_sees_one_message_at_two_sites_of_two_modules():
    trees = {
        "a.py": ast.parse('raise ValueError(f"cpt of {name!r} is short")\nraise ValueError("x")\n'),
        "b.py": ast.parse('if bad:\n    raise ValueError(f"cpt of {node.name!r} is short") from None\n'
                          'raise ValueError(f"cpt of {name!r} is long")\nraise ValueError(message)\n'),
    }
    assert _repeated_messages(trees) == {"cpt of {} is short": ["a.py:1", "b.py:2"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_duplicates_and_repeats_are_refused_only_in_measures(path):
    assert path.name == "measures.py" or _repeat_refusals(_tree(path)) == []


def test_the_repeat_guard_sees_both_words_in_any_case_and_position():
    tree = ast.parse('raise ValueError(f"repeated node {n!r} in marginal")\nraise ValueError("Duplicate key")\n'
                     'raise KeyError(f"{x} is duplicated")\nraise ValueError(f"unknown node {n!r}")\n')
    assert _repeat_refusals(tree) == [("repeated node {} in marginal", 1), ("Duplicate key", 2), ("{} is duplicated", 3)]


def test_scenario_records_are_frozen():
    assert set(_unfrozen(infoflow.society)) == RUN_STATE


def test_the_freeze_guard_sees_a_mutable_dataclass():
    probe = types.ModuleType("probe")
    probe.Loose = dataclasses.make_dataclass("Loose", ["x"], namespace={"__module__": "probe"})
    probe.Fixed = dataclasses.make_dataclass("Fixed", ["x"], frozen=True, namespace={"__module__": "probe"})
    probe.SimulationResult = infoflow.society.SimulationResult  # imported, not defined there
    assert _unfrozen(probe) == ["Loose"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_society_collects_the_entity_ids(path):
    assert [(f, line) for f, line in _entity_id_collectors(_tree(path)) if (path.stem, f) != ENTITY_INDEX] == []


def test_the_entity_id_guard_sees_lists_sets_maps_and_tuples_of_ids():
    tree = ast.parse(
        "class Society:\n"
        "    def __post_init__(self):\n"
        "        index = {e.id: k for k, e in enumerate(self.entities)}\n"
        "def decision_prob(soc):\n"
        "    return {e.id for e in soc.entities}, [(e.id, d) for e in soc.entities for d in e.data]\n"
        "ids = list(x.id for x in society.entities)\n"
        "other = [c.id for c in soc.channels], [e.data for e in soc.entities], list(soc.index)\n"
    )
    assert _entity_id_collectors(tree) == [
        ("Society.__post_init__", 3), ("decision_prob", 5), ("decision_prob", 5), ("<module>", 6),
    ]


def test_each_command_writes_its_output_in_one_step():
    calls = _output_calls(_tree(Path(infoflow.__file__).parent / "cli.py"))
    assert [(f, callee) for f, callee, _ in calls if callee == "_emit"] == [("main", "_emit")]
    assert [(f, callee) for f, callee, _ in calls if f != "_emit"] == [("main", "_emit")]


def test_the_output_guard_sees_named_and_attribute_calls_in_any_scope():
    tree = ast.parse(
        "def main(args):\n"
        "    _emit(*args.handler(args))\n"
        "def cmd_simulate(args):\n"
        "    with open(args.out, 'w') as fh, Path(args.out).open('w') as gh:\n"
        "        cli._emit(None, 'json', None, [(p, w)])\n"
        "class Writer:\n"
        "    def close(self):\n"
        "        io.open(self.path).close()\n"
        "opened, emitted = open, _emit\n"
    )
    assert _output_calls(tree) == [
        ("main", "_emit", 2), ("cmd_simulate", "open", 4), ("cmd_simulate", "open", 4), ("cmd_simulate", "_emit", 5),
        ("Writer.close", "open", 8),
    ]


def test_files_are_opened_only_by_the_reader_and_the_writer_of_measures():
    assert _call_sites(TREES, "open") == {("measures", "read_file"), ("measures", "write_files")}


def test_csv_writer_is_called_only_in_write_csv():
    assert _call_sites(TREES, "writer") == {("measures", "write_csv")}


def test_csv_reader_is_called_only_in_read_table():
    assert _call_sites(TREES, "reader") == {("anonymity", "read_table")}


def test_the_site_guard_sees_each_module_and_function():
    trees = {
        "measures": ast.parse("def read_file(p):\n    return open(p)\ndef write_csv(rows, fh):\n    csv.writer(fh)\n"),
        "cli": ast.parse("def main(p):\n    Path(p).open('w'), csv.writer(fh)\nclass T:\n    def rows(self):\n"
                         "        return csv.reader(x), reader(x)\nio.open(p)\n"),
    }
    assert _call_sites(trees, "open") == {("measures", "read_file"), ("cli", "main"), ("cli", "<module>")}
    assert _call_sites(trees, "writer") == {("measures", "write_csv"), ("cli", "main")}
    assert _call_sites(trees, "reader") == {("cli", "T.rows")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_text_becomes_bytes_only_in_measures_and_nothing_prints(path):
    assert [(f, what, line) for f, what, line in _stream_bytes(_tree(path))
            if what == "print" or path.stem != BYTES_AT] == []


def test_the_bytes_guard_sees_each_form():
    tree = ast.parse(
        "def emit(text):\n"
        "    sys.stdout.buffer.write(text.encode('utf-8'))\n"
        "    raw = getattr(sys.stderr, 'buffer', None)\n"
        "    print(text, file=sys.stderr)\n"
        "class W:\n"
        "    def close(self):\n"
        "        builtins.print(codecs.encode(x)), self.buffered, getattr(s, 'buffered')\n"
    )
    assert _stream_bytes(tree) == [
        ("emit", "buffer", 2), ("emit", "encode", 2), ("emit", "buffer", 3), ("emit", "print", 4),
        ("W.close", "print", 7), ("W.close", "encode", 7),
    ]


def test_the_split_read_raises_nothing():
    assert _raises_in(TREES["anonymity"], SPLIT_READ) == []


def test_the_csv_guard_sees_each_call_and_each_raise():
    tree = ast.parse(
        "def read(text):\n"
        "    return csv.reader(text), csv.writer(fh), csv.DictReader(text), reader(text)\n"
        "def _split_columns(text):\n"
        "    if not text:\n"
        "        raise ValueError('empty')\n"
        "    return [csv.reader(line) for line in text]\n"
    )
    assert _csv_calls(tree) == [("read", "reader", 2), ("read", "writer", 2), ("_split_columns", "reader", 6)]
    assert _raises_in(tree, "_split_columns") == [5]
    assert _raises_in(tree, "read") == [] and _raises_in(tree, "missing") is None
