"""README's Layout block names exactly the modules of the package, its
Command line section names exactly the command-line flags, its Library
section names every exported function and only names that resolve, the
package's export list names only what it defines, no module of the package
or of its tests imports a name it does not use, and no module checks an
invariant with ``assert``.  Of the package, ``certify`` imports only
``core`` and ``errors``, and no module calls ``json.dump`` or
``json.dumps``.  Every exported immutable value class takes exactly the
fields it compares as constructor arguments.

A module or flag added, deleted or moved without the README following would
leave it describing code that is not there; this keeps the two in step.  A
stale name in ``tropmean.__all__`` would otherwise fail only on a star
import, and a stale import outlives the code that needed it unnoticed, in a
test as in the package.  ``perfbench/`` is not read: ``gate.py`` imports
``workloads`` for the ``src`` path that importing it sets.
``python -O`` strips assert statements, so an invariant checked by one would
go unchecked there; the package raises its errors instead.  A certificate
check that called into the route it checks, or solved a system, would not
be independent of it, and a second JSON writer could drift from the one
whose bytes the goldens and the benchmark digests pin.  For the same reason
``frechet.objective`` goes through ``trop_dist`` and names none of the
helpers that evaluate a result, whose ``min_sum`` it checks.  ``qp`` reads no
``.denominator``, names no ``Fraction``, not even for its value, and
neither defines nor imports a scaling helper such as ``core.over_lcm`` or
the package's old ``over_common_denominator``: the exact QP and its
``integer_solve`` take integer data, and a rescaling inside them would be a
second, hidden scaling of what their callers already put on integers.  In
``core``, ``polytrope`` and ``serialize``, ``lcm`` is called only inside
``core.over_lcm``, the one routine that puts rationals over their least
common denominator for the library constructors and the document
readers.  Its mirror ``core.lowest`` is the one routine that refuses a
denominator below one and puts integers over a denominator in lowest
terms: in ``core``, ``polytrope`` and ``frechet`` ``gcd`` is called only
inside it, and the refusal's text is written once in the package, so the
four value classes that hold integers over a denominator cannot drift
apart in what they accept, as ``FrechetResult`` once did by taking a
denominator of zero or below.  Three reductions stay outside it:
``certify``'s weight groups are (i, k, w) triples, not rows of values, and
routing them through ``lowest`` doubled the cost of building a
certificate; ``serialize.format_ratio`` reduces one pair per distinct text
inside the document writer; and ``qp`` reduces its own iterates and
solves, as no scaling helper may enter the exact QP.  Neither ``core`` nor
``polytrope`` reads ``.denominator``: the closure, vertex and breakpoint
kernels take a matrix's and a point's integers as they are held.  A
rational value is read in one place, ``core.integer_ratio``: no module of
the package but ``core`` imports ``re`` or compiles a pattern, so the
plain-literal pattern has one home, and
``serialize._ratio`` and ``serialize.read_point`` call ``integer_ratio`` and
``canonicalize`` with no dispatch on the value's type of their own, nor
does ``polytrope``, whose ``PolytropeMatrix.from_rows`` calls
``integer_ratio``; a second reader could grow its own grammar or refusals,
and the library and the documents would then read one value two ways, as
``from_rows`` once refused the "-1/2" that ``SampleSet.from_rows`` takes.
``polytrope.membership`` names no ``Fraction``, ``as_rational`` or
``entries``: it decides each constraint on the matrix's and the point's
integers, as the closure and vertex kernels do.  The exhaustive oracle
settles a region in one way, by the sample's epigraph program pinned to
it: it imports only ``minimize_qp`` and ``right_hand_sides`` from ``qp``
and builds no normal equations of its own, and ``integer_solve``, the one
exact linear solve, serves the QP step alone, so the torus's gauge is held
in one place.  An uncertified mean takes one route: ``exact_frechet`` builds
it, the result with a ``reason``, in its one ``except InternalError``
handler, and ``FrechetResult.certified`` alone writes the refusal of it,
for every caller that needs a certified mean; a second fallback site or a
second copy of the refusal could drift from the first, or let a command
pass an uncertified mean off as checked.  A command-line value takes the
documents' route too: no action of the command-line parser converts its
value with a ``type``, and no module names ``ArgumentTypeError``, so each
flag value is read by its handler with ``parse_rational`` or
``read_point``, and a bad one is a ParseError, never argparse's usage error
with a second grammar behind it.

Start-up is most of the wall time of one command, so importing
``tropmean.cli`` loads neither ``dataclasses`` (which brings ``inspect``,
``ast`` and ``dis``) nor ``typing``, which annotations alone would use, nor
the exhaustive oracle, which no command calls.
"""

import argparse
import ast
import builtins
import fractions
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

from tropmean.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def _layout_modules():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    return sorted(re.findall(r"^  (\S+\.py)\s", block, flags=re.MULTILINE))


def test_readme_layout_names_every_module():
    modules = sorted(p.name for p in (ROOT / "src" / "tropmean").glob("*.py"))
    assert _layout_modules() == modules


def _parser_flags():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        flag
        for command in sub.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def test_readme_names_every_cli_flag():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    defined = _parser_flags()
    assert sorted(defined - documented) == []
    assert sorted(documented - defined) == []


def _library_name_resolves(name):
    """Whether a dotted name from the README's Library section names a
    ``tropmean`` export or an attribute of one, ``tropmean.<module>.<name>``,
    a field or attribute of an exported class, or a builtin or ``fractions``
    name."""
    import tropmean

    head, *rest = name.split(".")
    if head == "tropmean" and rest:
        try:
            obj = importlib.import_module(f"tropmean.{rest.pop(0)}")
        except ImportError:
            return False
    elif head in tropmean.__all__:
        obj = getattr(tropmean, head)
    elif rest:
        return False
    else:
        classes = [c for c in map(tropmean.__dict__.get, tropmean.__all__) if isinstance(c, type)]
        return (
            hasattr(builtins, head)
            or hasattr(fractions, head)
            or any(head in getattr(c, "_fields", ()) or hasattr(c, head) for c in classes)
        )
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_library_names_every_exported_function():
    """Both ways: every exported function is named in the Library section,
    and every backticked name there, outside the code example, resolves, so
    a deleted name cannot linger.  A span is checked by its leading dotted
    name (``exact`` in ``exact=False``); one with no leading name, such as
    an option, is not a name."""
    import tropmean

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    functions = [
        name for name in tropmean.__all__ if inspect.isfunction(getattr(tropmean, name))
    ]
    assert [name for name in functions if not re.search(rf"`{name}\b", section)] == []
    prose = re.sub(r"```.*?```", "", section, flags=re.DOTALL)
    names = [
        match.group()
        for span in re.findall(r"`([^`]+)`", prose)
        if (match := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span))
    ]
    assert names
    assert [name for name in names if not _library_name_resolves(name)] == []


def test_every_exported_name_resolves():
    import tropmean

    assert len(set(tropmean.__all__)) == len(tropmean.__all__)
    missing = [name for name in tropmean.__all__ if not hasattr(tropmean, name)]
    assert missing == []
    namespace: dict = {}
    exec("from tropmean import *", namespace)
    assert set(tropmean.__all__) <= set(namespace)


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_module_uses_its_imports():
    modules = sorted((ROOT / "src" / "tropmean").glob("*.py"))
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = [
        entry
        for path in modules
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == []


def test_no_module_asserts():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "tropmean").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _imported_modules(path):
    """The modules a file imports from, as dotted names; a relative import
    is written relative to the package, without its leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_certify_imports_nothing_from_the_route_it_checks():
    """Of the package, ``certify`` imports ``core`` and ``errors`` only: it
    solves no system and shares nothing with the route it checks."""
    imported = _imported_modules(ROOT / "src" / "tropmean" / "certify.py")
    package = {p.stem for p in (ROOT / "src" / "tropmean").glob("*.py")} | {"tropmean"}
    parts = {part for m in imported for part in m.split(".")}
    assert sorted(parts & package) == ["core", "errors"]


def test_objective_shares_no_code_with_the_result_it_checks():
    """``frechet.objective`` sums squared ``trop_dist`` values over Fractions
    and names none of the helpers that compute a result's ``min_sum``, so a
    check of ``min_sum == objective(mean)`` compares two independent
    computations."""
    tree = ast.parse((ROOT / "src" / "tropmean" / "frechet.py").read_text(encoding="utf-8"))
    [objective] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "objective"
    ]
    names = {node.id for node in ast.walk(objective) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(objective) if isinstance(node, ast.Attribute)}
    called = {
        node.func.id
        for node in ast.walk(objective)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "trop_dist" in called
    assert sorted(names & {"_lift", "_result_at", "_epigraph_qp", "minimize_qp"}) == []


def test_one_json_writer():
    calls = []
    for path in sorted((ROOT / "src" / "tropmean").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in {"dump", "dumps"}:
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                if {alias.name for alias in node.names} & {"dump", "dumps"}:
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_the_qp_kernel_takes_integers_only():
    path = ROOT / "src" / "tropmean" / "qp.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "denominator"
    ]
    assert reads == []
    names = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] in {"Fraction", "fractions"})
    ]
    assert names == []
    helpers = ("over_common_denominator", "over_lcm")
    assert not any(m.endswith(helpers) for m in _imported_modules(path))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert sorted(defined & set(helpers)) == []


def _scopes(path, found):
    """The qualified names of the functions and methods of a module with a
    node for which ``found`` holds; "" stands for the module's top level."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if found(child):
                scopes.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return scopes


def _calls(name):
    """Whether a node calls a function or method named ``name``."""

    def found(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )

    return found


def _reads_denominator(node):
    return isinstance(node, ast.Attribute) and node.attr == "denominator"


def test_rationals_are_put_over_their_lcm_in_over_lcm_only():
    package = ROOT / "src" / "tropmean"
    callers = {
        f"{name}.{scope}"
        for name in ("core", "polytrope", "serialize")
        for scope in _scopes(package / f"{name}.py", _calls("lcm"))
    }
    assert callers == {"core.over_lcm"}


def test_integers_are_put_in_lowest_terms_in_lowest_only():
    package = ROOT / "src" / "tropmean"
    callers = {
        f"{name}.{scope}"
        for name in ("core", "polytrope", "frechet")
        for scope in _scopes(package / f"{name}.py", _calls("gcd"))
    }
    assert callers == {"core.lowest"}
    texts = [path.read_text(encoding="utf-8") for path in package.glob("*.py")]
    assert sum(text.count("the denominator must be positive") for text in texts) == 1


def _names(*names):
    """Whether a node is a name or an attribute called one of ``names``."""

    def found(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names
        )

    return found


def test_the_polytrope_kernels_take_integers_only():
    polytrope = ROOT / "src" / "tropmean" / "polytrope.py"
    assert _scopes(polytrope, _reads_denominator) == set()
    assert "membership" not in _scopes(polytrope, _names("Fraction", "as_rational", "entries"))
    qp = ast.parse((ROOT / "src" / "tropmean" / "qp.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(qp) if isinstance(node, ast.FunctionDef)}
    assert "over_common_denominator" not in defined


def test_points_are_scaled_in_canonicalize_only():
    core = ROOT / "src" / "tropmean" / "core.py"
    assert _scopes(core, _reads_denominator) == set()
    assert "canonicalize" in _scopes(core, lambda node: isinstance(node, ast.Name) and node.id == "over_lcm")


def _uses_re(node):
    """An import of ``re`` or a call to a ``compile`` function."""
    if isinstance(node, ast.Import):
        return any(alias.name == "re" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "re"
    return _calls("compile")(node)


def _dispatches_on_type(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"isinstance", "type"}
    )


def test_rational_values_are_read_in_integer_ratio_only():
    package = ROOT / "src" / "tropmean"
    patterns = [
        f"{path.stem}.{scope}"
        for path in sorted(package.glob("*.py"))
        if path.stem != "core"
        for scope in _scopes(path, _uses_re)
    ]
    assert patterns == []
    core = package / "core.py"
    assert _scopes(core, _uses_re) == {""}
    serialize = package / "serialize.py"
    readers = {"_ratio", "read_point"}
    assert readers & _scopes(serialize, _dispatches_on_type) == set()
    assert "_ratio" in _scopes(serialize, _calls("integer_ratio"))
    assert "read_point" in _scopes(serialize, _calls("canonicalize"))
    polytrope = package / "polytrope.py"
    assert _scopes(polytrope, _dispatches_on_type) == set()
    assert "PolytropeMatrix.from_rows" in _scopes(polytrope, _calls("integer_ratio"))
    assert {"as_rational", "canonicalize", "SampleSet.from_rows"} <= _scopes(
        core, _calls("integer_ratio")
    )


def test_the_oracle_settles_a_region_in_one_way():
    """``oracle`` takes exactly ``minimize_qp`` and ``right_hand_sides`` from
    ``qp`` and builds no normal equations of its own, and in the package
    ``integer_solve`` is called only by the QP step."""
    package = ROOT / "src" / "tropmean"
    oracle = package / "oracle.py"
    tree = ast.parse(oracle.read_text(encoding="utf-8"))
    from_qp = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qp"
        for alias in node.names
    }
    assert from_qp == {"minimize_qp", "right_hand_sides"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert sorted(defined & {"add_square", "min_quadratic", "_inside"}) == []
    callers = {
        f"{path.stem}.{scope}"
        for path in sorted(package.glob("*.py"))
        for scope in _scopes(path, _calls("integer_solve"))
    }
    assert callers == {"qp._subspace_step"}


def test_an_uncertified_mean_takes_one_route():
    """``exact_frechet`` builds the uncertified result, the one with a
    ``reason``, in its one ``except InternalError`` handler only, and the
    refusal of such a result is written once, in ``FrechetResult.certified``."""
    package = ROOT / "src" / "tropmean"
    refusal = "could not certify a mean for this sample"
    texts = [path.read_text(encoding="utf-8") for path in package.glob("*.py")]
    assert sum(text.count(refusal) for text in texts) == 1
    assert _scopes(
        package / "frechet.py",
        lambda node: isinstance(node, ast.Constant) and refusal in str(node.value),
    ) == {"FrechetResult.certified"}
    tree = ast.parse((package / "frechet.py").read_text(encoding="utf-8"))
    [exact] = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "exact_frechet"
    ]
    handlers = [node for node in ast.walk(exact) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["InternalError"]

    # A result is built in ``_result_at`` alone, and is uncertified when
    # that call passes a ``reason``.
    assert _scopes(package / "frechet.py", _calls("FrechetResult")) == {"_result_at"}
    built = [
        node
        for node in ast.walk(tree)
        if _calls("_result_at")(node)
        and (len(node.args) > 3 or any(k.arg == "reason" for k in node.keywords))
    ]
    assert len(built) == 1
    assert built[0] in list(ast.walk(handlers[0]))


def test_command_line_values_take_one_route():
    """argparse parses the commands' shape alone: no action of the parser
    or of its sub-parsers has a ``type``, and no module of the package names
    ``ArgumentTypeError``."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [*parser._actions, *(a for p in sub.choices.values() for a in p._actions)]
    assert [a.dest for a in actions if a.type is not None] == []
    package = ROOT / "src" / "tropmean"
    named = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "ArgumentTypeError" in path.read_text(encoding="utf-8")
    ]
    assert named == []


def test_every_constructor_argument_is_a_compared_field():
    """Each exported immutable value class takes exactly its ``_fields`` as
    ``__init__`` parameters, in order, and compares all of them: state
    derived from the fields, such as a matrix's closure, is worked out and
    kept by the code that computes it, never passed in as a flag."""
    import tropmean
    from tropmean.core import Frozen

    classes = [
        c
        for c in map(tropmean.__dict__.get, tropmean.__all__)
        if isinstance(c, type) and issubclass(c, Frozen)
    ]
    assert len(classes) >= 5
    offenders = [
        c.__name__
        for c in classes
        if [*inspect.signature(c.__init__).parameters][1:] != [*c._fields]
        or c._key is not Frozen._key
    ]
    assert offenders == []


def test_the_command_line_imports_no_heavy_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tropmean.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    command = [sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")]
    loaded = set(subprocess.run(command, capture_output=True, text=True, check=True, timeout=60).stdout.split())
    assert "tropmean.cli" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "typing", "tropmean.oracle"}) == []
    # Each of these serves one command, which imports it when it runs.
    assert sorted(loaded & {"contextlib", "csv", "random"}) == []
