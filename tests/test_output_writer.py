"""Every output file is written through sampler._replacing, so it appears only when complete.

The check reads the package's source with ast: a write_text or
write_bytes call, or an open() in a mode that can write, anywhere but
inside _replacing would be a second writer.
"""

import ast
from pathlib import Path

import langevin_lab

SOURCES = sorted(Path(langevin_lab.__file__).resolve().parent.glob("*.py"))
MODULES = {"io", "os", "builtins"}


def open_mode(call: ast.Call):
    """The mode an open() call passes: "r" when none, None when it is not a constant."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value.value if isinstance(keyword.value, ast.Constant) else None
    func = call.func
    method = isinstance(func, ast.Attribute) and not (isinstance(func.value, ast.Name) and func.value.id in MODULES)
    args = call.args[0 if method else 1:]  # path.open(mode) against open(path, mode)
    if not args:
        return "r"
    return args[0].value if isinstance(args[0], ast.Constant) else None


def writers(path: Path, allowed: str = "_replacing") -> list:
    """(file:line, call) of every call in path that writes a file outside the function allowed."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == allowed
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
                found.append((f"{path.name}:{node.lineno}", name))
            elif name == "open" and not inside:
                mode = open_mode(node)
                if mode is None or set(mode) & set("wax+"):
                    found.append((f"{path.name}:{node.lineno}", f"open mode {mode!r}"))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_no_output_is_written_outside_replacing():
    assert SOURCES and [w for path in SOURCES for w in writers(path)] == []


def test_the_check_sees_the_writes_inside_replacing():
    sampler = next(path for path in SOURCES if path.name == "sampler.py")
    assert [call for _, call in writers(sampler, allowed="")] == ["open mode 'rb+'", "open mode 'w'"]


def test_the_check_reads_every_form_of_open():
    calls = {
        "open(p)": "r", "open(p, 'rb')": "rb", "open(p, 'w')": "w", "open(p, mode='a')": "a",
        "p.open()": "r", "p.open('wb')": "wb", "io.open(p, 'x')": "x", "open(p, m)": None,
        "os.open(p, os.O_WRONLY)": None,
    }
    for source, mode in calls.items():
        assert open_mode(ast.parse(source, mode="eval").body) == mode, source
