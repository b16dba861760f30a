"""The package's modules form the layers

    errors -> arith -> cusps -> genus | symmetry -> etaq -> criteria
    -> __init__ -> cli

Every relative import must point to a strictly earlier layer, and every
import must sit at module level, so the import graph has no cycles and
no cycle is hidden inside a function body.  Every name a module or a
test file imports is used there, apart from the package's re-exports;
every public function, class and method of the package is named
somewhere in it outside its own definition, re-exported or not; and
every error class is a `DomainError` raised somewhere in it.  Only `cli` turns records
into JSON or TSV, and every list of units comes from `arith.units`.
The arithmetic is exact: no module divides with `/` or touches a float,
and none imports `fractions`: a rational is an integer numerator over a
known denominator, and `arith.ratio_text` writes it.  None imports
`__future__` either: on the oldest Python the package supports, 3.10,
every annotation in it evaluates as written.
"""

import ast
import importlib
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from cuspforge.arith import DeltaSubgroup, delta_d, factorize
from cuspforge.cusps import GAMMA1, atlas
from cuspforge.genus import genus_delta

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cuspforge"
README = TESTS.parent / "README.md"

LAYER = {
    "errors": 0,
    "arith": 1,
    "cusps": 2,
    "genus": 3,
    "symmetry": 3,
    "etaq": 4,
    "criteria": 5,
    "__init__": 6,
    "cli": 7,
}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


def _relative_targets(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module or "__init__"


@pytest.mark.parametrize("module", MODULES)
def test_relative_imports_point_to_earlier_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for target in _relative_targets(tree):
        assert LAYER[target] < LAYER[module], f"{module} imports {target}"


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not local, f"{module}.{fn.name} imports inside its body"


def test_every_cache_is_bounded():
    # factorize holds the one cache, for the trial divisions a command
    # repeats; a long-lived process must not grow it without bound, and a
    # new cache needs a reason stated here
    caches = {}
    for module in MODULES:
        mod = importlib.import_module(f"cuspforge.{module}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                caches[f"{module}.{name}"] = obj.cache_parameters()["maxsize"]
    assert set(caches) == {"arith.factorize"}
    assert caches["arith.factorize"] is not None


def test_results_are_not_retained():
    # large Delta_d groups and X_1(N) atlases are dropped with their results
    levels = [10**8 * k for k in (1, 3, 7, 9, 11)] + [49999, 49993]
    for n in levels:
        factorize(n)  # the one cache may keep these
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in levels[:5]:
            delta_d(n, 10**4)
        atlas(49999, GAMMA1)
        atlas(49993, GAMMA1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**20, f"{kept} bytes kept"


def test_divisor_check_has_one_home():
    # every function of (N, d) validates d through arith.cofactor_gcd
    sites = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and "NotADivisor" in ast.dump(node):
                        sites.append(f"{module}.{fn.name}")
    assert sites == ["arith.cofactor_gcd"]


def test_positivity_check_has_one_home():
    # every level, worker count and number of terms below 1 is refused by
    # arith.check_positive
    sites = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and "NotPositive" in ast.dump(node):
                        sites.append(f"{module}.{fn.name}")
    assert sites == ["arith.check_positive"]


def test_irregular_check_has_one_home():
    # every function that needs e = gcd(d, N/d) > 1 asks arith.irregular_e
    sites = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise) and "NotIrregular" in ast.dump(node):
                        sites.append(f"{module}.{fn.name}")
    assert sites == ["arith.irregular_e"]


def test_unit_list_has_one_home():
    # every list of units comes from arith.units, a sieve off the
    # factorization: no comprehension in the package filters a range of
    # residues by gcd
    sites = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.comprehension) and _named(node.iter)["range"]:
                for cond in node.ifs:
                    if any(
                        isinstance(c, ast.Call) and _named(c.func)["gcd"]
                        for c in ast.walk(cond)
                    ):
                        sites.append(f"{module}: {ast.unparse(cond)}")
    assert sites == []


def test_cover_step_has_one_home():
    # both quotient-genus proofs go through criteria._cover_step: it alone
    # applies schoeneberg, and it alone refuses a cover that is not
    # totally ramified
    calls, refusals = [], []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and _named(node.func)["schoeneberg"]:
                        calls.append(f"{module}.{fn.name}")
                    if isinstance(node, ast.Raise) and "totally ramified" in ast.unparse(node):
                        refusals.append(f"{module}.{fn.name}")
    assert calls == refusals == ["criteria._cover_step"]


def test_cli_dispatch_has_one_home():
    # each command form is one row of cli._FORMS, with its handler: no
    # function compares the command or a second word with a string literal
    cli = importlib.import_module("cuspforge.cli")
    words = {word for form in cli._FORMS for word in form}
    names = {"command", *cli._WORD.values()}
    branches = []
    for fn in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    strings = {
                        n.value
                        for n in ast.walk(node)
                        if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    }
                    if strings & words or strings and names & _named(node).keys():
                        branches.append(f"cli.{fn.name}: {ast.unparse(node)}")
    assert not branches, branches
    assert all(len(row) == 3 and callable(row[2]) for row in cli._FORMS.values())


def test_output_format_has_one_home():
    # the layers return plain records, and cli alone turns them into JSON
    # or TSV: no other module defines a to_json or to_tsv, or imports json
    renderers, importers = [], set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "to_tsv"):
                renderers.append(f"{module}.{node.name}")
            elif isinstance(node, ast.Import) and "json" in {a.name for a in node.names}:
                importers.add(module)
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                importers.add(module)
    assert renderers == [] and importers == {"cli"}, (renderers, importers)


@pytest.mark.parametrize("module", MODULES)
def test_no_true_division_or_float(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        where = f"{module}.py:{getattr(node, 'lineno', '?')}"
        op = getattr(node, "op", None)
        assert not isinstance(op, ast.Div), f"{where} divides with /"
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
        assert not (isinstance(node, ast.Name) and node.id == "float"), f"{where} uses float"


def test_no_module_imports_fractions():
    importers = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if "fractions" in names:
                importers.add(module)
    assert importers == set()


def test_no_module_imports_future():
    importers = {
        module
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    }
    assert importers == set()


def test_genus_counts_are_ints():
    p = genus_delta(DeltaSubgroup(720, (7,)))
    assert [type(v) for v in p[1:]] == [int] * 5


IMPORTING_FILES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
IMPORTING_FILES += sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", IMPORTING_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} imports {sorted(imported - used)} unused"


def _named(node) -> Counter:
    """How often each identifier is named under node, as a variable or an
    attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_defs(tree):
    """(qualified name, node) of each public top-level function or class,
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield f"{node.name}.{item.name}", item


def _reexports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }


def test_every_public_symbol_has_a_caller():
    # a public symbol is named in src outside its own definition: a
    # re-export alone is no caller, or the library API would keep code
    # that the package never runs
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    unreached = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_defs(tree)
        if named[node.name] == _named(node)[node.name]
    ]
    assert not unreached, f"public but never called: {unreached}"


def test_every_error_is_raised():
    # each class of errors.py is raised by name somewhere in src, so no
    # error outlives the last check that raised it
    errors = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert errors - raised == set(), f"never raised: {sorted(errors - raised)}"


def test_every_error_is_a_refusal():
    # errors.py holds the refusals of bad input, which the CLI exits 2 on;
    # a broken invariant is a plain RuntimeError, raised where it is checked
    errors = importlib.import_module("cuspforge.errors")
    classes = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert len(classes) > 1
    others = [c.__name__ for c in classes if not issubclass(c, errors.DomainError)]
    assert not others, f"not a DomainError: {others}"


def test_exit_codes_name_only_errors():
    # the errors README's exit-code paragraph names in backticks are
    # classes of errors.py, or the two types exit 1 prints, so a deleted
    # error cannot stay documented there
    text = README.read_text()
    start, end = text.index("Exit codes:"), text.index("Output is deterministic.")
    assert start < end
    spans = re.findall(r"`([^`]*)`", text[start:end])
    named = {m for span in spans for m in re.findall(r"\b[A-Z]\w*[A-Z]\w*", span)}
    errors = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    assert "NotPositive" in named
    stale = sorted(named - errors - {"OSError", "RuntimeError"})
    assert not stale, f"in README's exit codes but not in errors.py: {stale}"


def _library_api() -> str:
    text = README.read_text()
    match = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, "README has no Library API section"
    return match.group(1)


def test_every_reexport_is_documented():
    api = _library_api()
    missing = [
        name
        for name in sorted(_reexports())
        if not re.search(rf"`{re.escape(name)}[`(]", api)
    ]
    assert not missing, f"re-exported but not in README's Library API: {missing}"


def test_every_documented_name_is_a_reexport():
    # the names a bullet lists before its dash, as `name` or `name(args)`;
    # every bullet of the section has such a head
    api = _library_api()
    heads = re.findall(r"^- (.*?) — ", api, re.M)
    named = {m for head in heads for m in re.findall(r"`(\w+)[`(]", head)}
    assert heads and len(heads) == len(re.findall(r"^- ", api, re.M))
    assert len(named) > len(heads)
    stale = sorted(named - _reexports())
    assert not stale, f"in README's Library API but not re-exported: {stale}"
