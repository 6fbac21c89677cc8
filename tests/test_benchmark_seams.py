"""The benchmark's tracing sites resolve, and no module keeps a dead import.

``perfbench/spans.py`` wraps program names by (module, attribute).  A site
that no longer resolves breaks the benchmark outside tier-1, and a name a
module imports but never reads is either dead or kept alive only for such a
site.  This reads the site table from the benchmark file without running it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "radartag"


def _benchmark_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {site for sites in spans.SITES.values() for site in sites}


def _unread_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


def test_benchmark_sites_resolve_and_no_module_keeps_an_unread_import():
    sites = _benchmark_sites()
    missing = [(module, attr) for module, attr in sorted(sites)
               if not hasattr(importlib.import_module(f"radartag.{module}"), attr)]
    assert missing == []
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        names = _unread_imports(path) - {attr for module, attr in sites if module == path.stem}
        if names:
            unread[path.stem] = sorted(names)
    assert unread == {}
