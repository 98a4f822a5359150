"""One owner per numeric rule, checked on the source of mmspace.

Distances between points come from cloud._euclidean alone, the one kernel
that refolds what cdist cannot square in float64.  The graph metrics take
their powers from space._powered, so geodesic.py holds no overflow rule of
its own around a power; its one np.errstate block is fermat_scaled's, around
a product.
"""
import ast
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
