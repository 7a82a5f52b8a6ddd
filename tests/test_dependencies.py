import ast
import os
import pathlib
import re
import subprocess
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdmlfc"


def declared_dependencies() -> set[str]:
    """Names in pyproject.toml's [project].dependencies, version specifiers dropped."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in project["dependencies"]}


def third_party_imports() -> set[str]:
    """Top-level modules imported anywhere under src/cdmlfc, less the stdlib and the package."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"cdmlfc"}


def test_imports_are_the_declared_dependencies():
    assert third_party_imports() == declared_dependencies()


def run_python(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_cli_import_leaves_scipy_out():
    out = run_python("import sys, cdmlfc.cli; print('scipy' in sys.modules)")
    assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr


def test_cli_import_leaves_the_affine_module_out():
    # cdmlfc.affine is imported only where a run needs it (the tuning
    # objective, simulate's closed form): its compile peaks at about 0.9 MB
    # where no bytecode is cached
    out = run_python("import sys, cdmlfc.cli; print('cdmlfc.affine' in sys.modules)")
    assert (out.returncode, out.stdout.strip()) == (0, "False"), out.stderr
