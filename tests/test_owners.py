"""One owner per numeric rule, checked on the source of mmspace.

Distances between points come from cloud._euclidean alone, the one kernel
that refolds what cdist cannot square in float64.  The graph metrics take
their powers from space._powered, so geodesic.py holds no overflow rule of
its own around a power; its one np.errstate block is fermat_scaled's, around
a product.  A scalar argument is checked by space.py's owners
(_check_positive, _check_count, _check_tol, _check_p), so no other module
raises on a math.isfinite test of its own, and geodesic.py imports those
owners at module level: space.py does not import geodesic.  fpp.py calls a
reference norm only on whole batches, never per pair, point or vertex.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmspace"


def parsed():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def called(node, name):
    """Whether node calls name, bare or as an attribute (np.errstate)."""
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def euclidean_cdist_sites(tree):
    """Line numbers of the cdist calls with the default metric, "euclidean",
    or a metric that is not a string constant, which may be either."""
    sites = []
    for node in ast.walk(tree):
        if called(node, "cdist"):
            metric = node.args[2] if len(node.args) > 2 else next(
                (kw.value for kw in node.keywords if kw.arg == "metric"), None
            )
            if not (isinstance(metric, ast.Constant) and isinstance(metric.value, str) and metric.value != "euclidean"):
                sites.append(node.lineno)
    return sites


def test_euclidean_cdist_is_called_only_in_the_kernel():
    trees = parsed()
    sites = {name: lines for name, tree in trees.items() if (lines := euclidean_cdist_sites(tree))}
    assert list(sites) == ["cloud.py"] and len(sites["cloud.py"]) == 1
    kernel = next(f for f in trees["cloud.py"].body if isinstance(f, ast.FunctionDef) and f.name == "_euclidean")
    assert kernel.lineno <= sites["cloud.py"][0] <= kernel.end_lineno


def test_geodesic_has_no_errstate_around_a_power():
    blocks = [
        node for node in ast.walk(parsed()["geodesic.py"])
        if isinstance(node, ast.With) and any(called(item.context_expr, "errstate") for item in node.items)
    ]
    # the one block left is fermat_scaled's, around a product
    assert len(blocks) == 1
    powers = [n for block in blocks for n in ast.walk(block) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
    assert not powers, f"geodesic.py:{powers[0].lineno} powers under np.errstate; use space._powered"


def math_isfinite(node):
    """Whether node calls math.isfinite."""
    return called(node, "isfinite") and getattr(getattr(node.func, "value", None), "id", None) == "math"


def isfinite_raises(tree):
    """The innermost enclosing function of every if statement whose test calls
    math.isfinite and whose body raises."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if (
                isinstance(child, ast.If)
                and any(math_isfinite(n) for n in ast.walk(child.test))
                and any(isinstance(n, ast.Raise) for stmt in child.body for n in ast.walk(stmt))
            ):
                sites.append(function)
            visit(child, inner)

    visit(tree, None)
    return sites


# the two scalar rules that stay outside space.py: the Fermat exponent, and
# the CLI's --t list, whose every time must be positive and finite
OWN_FINITE_TESTS = Counter({("geodesic.py", "_check_alpha"): 1, ("cli.py", "cmd_fpp"): 1})


def test_scalar_arguments_are_checked_by_the_owners_in_space():
    found = Counter(
        (name, function)
        for name, tree in parsed().items()
        if name != "space.py"
        for function in isfinite_raises(tree)
    )
    assert found == OWN_FINITE_TESTS, f"hand-written finiteness checks outside space.py: {found - OWN_FINITE_TESTS}"


def imports_of(tree, module):
    """Every import statement in tree of the mmspace module named module,
    whether it names the module (from . import geodesic) or takes names
    from it (from .geodesic import x)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            paths = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        if any(path.split(".")[-1] == module for path in paths):
            found.append(node)
    return found


def test_space_does_not_import_geodesic():
    trees = parsed()
    assert not imports_of(trees["space.py"], "geodesic")
    # geodesic takes the owners from space in one import at module level, none at call time
    geodesic = trees["geodesic.py"]
    assert [node in geodesic.body for node in imports_of(geodesic, "space")] == [True]


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_element_calls(tree, name):
    """Line numbers where name is called inside a for or while loop or a
    comprehension, or passed to map."""
    sites = []

    def visit(node, looped):
        for child in ast.iter_child_nodes(node):
            mapped = called(child, "map") and any(getattr(arg, "id", None) == name for arg in child.args)
            if mapped or (looped and called(child, name)):
                sites.append(child.lineno)
            visit(child, looped or isinstance(child, LOOPS))

    visit(tree, False)
    return sites


def test_shape_defect_calls_the_reference_norm_on_batches_only():
    snippets = [
        "for z in x:\n    reference_norm(z)",
        "while x:\n    reference_norm(x)",
        "[reference_norm(z) for z in x]",
        "max(reference_norm(z) for z in x)",
        "list(map(reference_norm, x))",
    ]
    assert [per_element_calls(ast.parse(code), "reference_norm") for code in snippets] == [[2], [2], [1], [1], [1]]
    assert per_element_calls(ast.parse("for b in x:\n    _norms(reference_norm, b)"), "reference_norm") == []
    sites = per_element_calls(parsed()["fpp.py"], "reference_norm")
    assert not sites, f"fpp.py calls reference_norm per element at lines {sites}"
