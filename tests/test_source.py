"""Checks on the library source itself."""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import dpformation

SRC = pathlib.Path(dpformation.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so library invariants must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


# pyproject and CI support Python 3.10. Neither guard below catches a
# stdlib API added in 3.11; those fail only when run on 3.10 itself.
def test_parses_as_python_3_10():
    # ast's feature_version is best effort: it rejects 3.11-only grammar
    # such as except*, not every newer form
    failed = []
    for path in sorted([*SRC.rglob("*.py"), *TESTS.rglob("*.py")]):
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert not failed


def test_regex_literals_compile_before_python_3_11():
    # possessive repeats (a*+) and atomic groups ((?>...)) came in 3.11's
    # re; 3.10 rejects them when the pattern is compiled
    parser = getattr(re, "_parser", None)
    constants = getattr(re, "_constants", None)
    newer = [getattr(constants, name, None)
             for name in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")]
    if parser is None or None in newer:
        pytest.skip("this re parser has no 3.11 opcodes")

    def leaves(node):
        if isinstance(node, (list, tuple, parser.SubPattern)):
            for child in node:
                yield from leaves(child)
        else:
            yield node

    patterns = [node.args[0].value
                for path in sorted(SRC.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and isinstance(node.args[0], ast.Constant)]
    assert patterns  # the scan finds the library's regexes
    for pattern in patterns:
        assert not any(leaf is op for leaf in leaves(parser.parse(pattern))
                       for op in newer), pattern


@pytest.mark.parametrize("module", ["scipy", "orjson", "concurrent.futures"])
def test_cli_import_does_not_load(module):
    # start-up of every command pays for what `import dpformation.cli`
    # loads. scipy is a test dependency only: its special and
    # sparse.csgraph submodules took most of each command's start-up while
    # the library imported them. orjson is needed only to write a CSV, and
    # concurrent.futures (which loads logging) only for worker threads.
    code = ("import sys, dpformation.cli; print(sorted(m for m in sys.modules"
            f" if m == {module!r} or m.startswith({module + '.'!r})))")
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_positivity_message_has_one_home():
    # every scalar input is checked by graphs.check_positive; kappa's check
    # covers a whole epsilon grid and names no value
    text = "must be positive and finite"
    homes = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = {}
        for scope in ast.walk(tree):  # breadth first: inner scopes last
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                for node in ast.walk(scope):
                    scopes[node] = scope.name
        homes += [f"{path.stem}.{scopes.get(node, '<module>')}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and text in node.value]
    assert sorted(homes) == ["graphs.check_positive", "privacy.kappa"]


def test_readme_library_sketch_runs():
    # the README's one python block is the documented library API; it must
    # run as written, and without a numpy RuntimeWarning
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_functions_have_a_library_caller():
    # ROADMAP aim 2: a helper used only by tests belongs in tests/. Every
    # public module-level function and class is named in the library
    # outside its own definition, or in the README's python block; a
    # re-export in __init__.py is not a use
    def places(tree, module):
        """(name, (module, top-level definition it sits in)) per name."""
        for top in tree.body:
            owner = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    yield node.id, owner
                elif isinstance(node, ast.Attribute):
                    yield node.attr, owner

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block, = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"}
    named = {}
    for module, tree in [*trees.items(), ("README", ast.parse(block))]:
        for name, place in places(tree, module):
            named.setdefault(name, set()).add(place)
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not named.get(node.name, set()) - {(module, node.name)}]
    assert not unused, f"public names with no library caller: {unused}"
