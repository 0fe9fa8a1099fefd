"""Static checks over the package source, and the lazy public namespace."""

import ast
from pathlib import Path

import diarsep
from test_cli import fresh_python

PACKAGE = Path(diarsep.__file__).resolve().parent


def package_imports(source: str, package: str) -> list[int]:
    """Line numbers of every import of ``package`` or its submodules in a module's source,
    at any depth (lazy imports too)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == package or name.startswith(f"{package}.") for name in names):
            lines.append(node.lineno)
    return lines


def test_package_source_imports_no_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = {str(path.relative_to(PACKAGE)): package_imports(path.read_text(), "scipy") for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# numpy's products that run on BLAS, which splits a long sum over its own threads
BLAS_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_products(path: Path) -> list[int]:
    """Line numbers of every ``@`` and every use or import of a name in BLAS_PRODUCTS in a module."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in BLAS_PRODUCTS for a in node.names):
            lines.append(node.lineno)
    return lines


def test_separation_scoring_uses_no_blas_product():
    # a BLAS product would let the thread count change the scores' bits
    assert blas_products(PACKAGE / "der.py")  # the check sees der's `d @ ...` sums
    assert blas_products(PACKAGE / "sepmetrics.py") == []


def calls_named(path: Path, names: set[str]) -> list[int]:
    """Line numbers of every call, in a module, of a function or method whose name is in ``names``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
    ]


def test_one_filtering_kernel():
    # the resampler's Toeplitz products are the package's one FIR kernel; np.convolve
    # summed in another order, with one BLAS dot product per output sample
    assert calls_named(Path(__file__).with_name("oracles.py"), {"convolve"})  # the check sees np.convolve
    modules = sorted(PACKAGE.rglob("*.py"))
    found = {str(path.relative_to(PACKAGE)): calls_named(path, {"convolve", "correlate"}) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


# names that write or cut a file, called or passed on (os.pwrite handed to a helper)
OUTPUT_NAMES = {"pwrite", "ftruncate", "truncate", "write_bytes", "write_text", "tofile"}


def writes_output(node: ast.AST) -> bool:
    """Whether ``node`` uses os.open or a name in OUTPUT_NAMES, or calls open() with a mode
    that writes (w, a, x or +, or a mode that is not a literal)."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "open":
        at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)
    if isinstance(node, ast.Attribute) and node.attr == "open":
        return getattr(node.value, "id", None) == "os"
    field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    return field is not None and getattr(node, field) in OUTPUT_NAMES


def output_functions(source: str) -> dict[str, list[int]]:
    """Line numbers of every ``writes_output`` node, by the top-level function (or "<module>") that holds it."""
    found = {}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if writes_output(node):
                found.setdefault(getattr(top, "name", "<module>"), []).append(node.lineno)
    return found


def test_one_function_opens_writes_and_cuts_output_files():
    # features.output_file alone writes files, so every output keeps its rule: in place,
    # cut to length, removed on failure, and a non-regular target left alone
    control = 'def f(p, q, mode):\n    open(p)\n    open(q, "ab")\n    Path(p).open(mode)\n    p.write_text("x")\n'
    assert output_functions(control) == {"f": [3, 4, 5]}
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        found.update({f"{path.stem}.{name}": lines for name, lines in output_functions(path.read_text()).items()})
    assert sorted(found) == ["features.output_file"], found


# names that read a file's bytes, called or passed on
BYTE_READS = {"read_bytes", "fromfile", "memmap", "pread", "preadv", "readinto"}


def reads_bytes(node: ast.AST) -> bool:
    """Whether ``node`` uses os.read or a name in BYTE_READS, or calls open() with a literal binary read mode."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "open":
        at = 1 if isinstance(node.func, ast.Name) else 0  # open(path, mode), path.open(mode)
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at : at + 1]
        return any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
    if isinstance(node, ast.Attribute) and node.attr == "read":
        return getattr(node.value, "id", None) == "os"
    field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    return field is not None and getattr(node, field) in BYTE_READS


def test_one_function_opens_and_reads_input_wav_files():
    # audio.wav_source alone reads WAV bytes, so every input keeps its header
    # checks and its block reads; read_feature_stack reads SSLF files
    control = 'def f(p, fd):\n    open(p).read()\n    open(p, "rb").read()\n    os.read(fd, 9)\n    np.fromfile(p)\n'
    found = {}
    for top in ast.parse(control).body:
        found[top.name] = sorted(node.lineno for node in ast.walk(top) if reads_bytes(node))
    assert found == {"f": [3, 4, 5]}
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            lines = sorted(node.lineno for node in ast.walk(top) if reads_bytes(node))
            if lines:
                found[f"{path.stem}.{getattr(top, 'name', '<module>')}"] = lines
    assert sorted(found) == ["audio.wav_source", "features.read_feature_stack"], found


def proc_paths(source: str) -> list[int]:
    """Line numbers of every string in a module's source that names /proc or a path under it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and (node.value + "/").startswith("/proc/")
    ]


def test_package_reads_no_process_internals():
    # the thread policy is one line in cli.run (OPENBLAS_NUM_THREADS=1), so no code
    # loads the BLAS library by ctypes or scans /proc to size its pool
    control = 'import ctypes\ndef f():\n    from ctypes import CDLL\n    open("/proc/self/maps")\n    open("/procs")\n'
    assert (package_imports(control, "ctypes"), proc_paths(control)) == ([1, 3], [4])
    found = {}
    for path in PACKAGE.rglob("*.py"):
        source = path.read_text()
        found[str(path.relative_to(PACKAGE))] = package_imports(source, "ctypes") + proc_paths(source)
    assert {name: lines for name, lines in found.items() if lines} == {}


def module_level_imports(path: Path) -> set[str]:
    """Modules that importing ``path`` imports: absolute names, and package modules as
    ".name" ("." for the package itself); imports inside function bodies excluded."""
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                dot = "." * bool(node.level)
                if node.module:
                    found.add(dot + node.module)
                else:  # from . import name: a submodule, or a name of the package
                    found.update(
                        f".{a.name}" if (PACKAGE / f"{a.name}.py").exists() else "." for a in node.names
                    )
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(ast.iter_child_nodes(node))

    visit(ast.parse(path.read_text(), str(path)).body)
    return found


def imports_numpy(module: str, seen: set[str]) -> bool:
    """Whether importing the package module ``module`` (".der", "." for __init__) imports numpy."""
    if module in seen:
        return False
    seen.add(module)
    path = PACKAGE / ("__init__.py" if module == "." else f"{module[1:]}.py")
    names = module_level_imports(path)
    return any(n == "numpy" or n.startswith("numpy.") for n in names) or any(
        imports_numpy(n, seen) for n in names if n.startswith(".")
    )


def text_reads_without_encoding(source: str) -> list[int]:
    """Line numbers of every read_text() call, and every builtin open() in text mode, that names no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "read_text":
            lines.append(node.lineno)
        elif isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and "b" in mode.value):
                lines.append(node.lineno)
    return lines


def test_every_text_read_names_its_encoding():
    # the locale's encoding would decode an RTTM, UEM, weights or config file
    # differently from one machine to the next
    sample = "Path(p).read_text()\nopen(p)\nopen(p, 'r')\nopen(p, 'rb')\nopen(p, encoding='utf-8')\n"
    assert text_reads_without_encoding(sample) == [1, 2, 3]  # the check sees both kinds of read
    modules = sorted(PACKAGE.rglob("*.py"))
    found = {str(path.relative_to(PACKAGE)): text_reads_without_encoding(path.read_text()) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_and_cli_import_no_numpy_at_module_level():
    # a CLI child imports __init__ and cli.py before argparse runs; numpy and the
    # modules that need it load inside the subcommand that calls them
    assert imports_numpy(".der", set())  # the check sees through package imports
    assert {name: imports_numpy(name, set()) for name in (".", ".cli")} == {".": False, ".cli": False}


def test_public_names_resolve_lazily():
    # a fresh interpreter: nothing in the package is loaded yet; the submodule named
    # like the function diarsep.resample loads first, and must not hide that function
    script = (
        "import sys\n"
        "import diarsep\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('diarsep')))\n"
        "import diarsep.resample\n"
        "star = {}\n"
        "exec('from diarsep import *', star)\n"
        "del star['__builtins__']\n"
        "print(sorted(star) == sorted(diarsep.__all__), set(diarsep.__all__) <= set(dir(diarsep)))\n"
        "print([n for n in diarsep.__all__ if n != '__version__' and not getattr(diarsep, n) is star[n]\n"
        "       is getattr(sys.modules[star[n].__module__], n)])\n"
        "try:\n"
        "    diarsep.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    result = fresh_python(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "['diarsep']",
        "True True",
        "[]",
        "module 'diarsep' has no attribute 'no_such_name'",
    ]
