import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import oomscene

# the top-level modules that importing the package and its CLI adds, printed
# by a fresh interpreter so that modules this test process holds do not count
PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import oomscene, oomscene.cli
added = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added)))
"""


def test_numpy_is_the_only_runtime_dependency():
    source = str(Path(oomscene.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         env=env, check=True).stdout
    added = set(json.loads(out))
    assert "oomscene" in added
    assert added - sys.stdlib_module_names <= {"numpy", "oomscene"}


def test_cli_imports_no_private_name():
    # cli.py parses arguments and writes files; a private name it needs from
    # the library is library logic that belongs behind a public stage
    cli = Path(oomscene.__file__).with_name("cli.py")
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "oomscene")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_library_modules_use_every_name_they_import():
    # a name a module imports and never reads is dead code left by a
    # deletion; __init__.py imports only to re-export
    unused = []
    for path in sorted(Path(oomscene.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
