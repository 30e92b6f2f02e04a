"""Every output file is written by the outputs module, through _replacing, so it appears only when complete.

The checks read the package's source with ast: a write_text or
write_bytes call, or an open() in a mode that can write, anywhere but
inside outputs._replacing would be a second writer; and the chains in
sampler and the commands in cli leave files, and summaries, to outputs.
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
    outputs = next(path for path in SOURCES if path.name == "outputs.py")
    assert [call for _, call in writers(outputs, allowed="")] == ["open mode 'rb+'", "open mode 'w'"]


def source(name: str) -> ast.Module:
    return ast.parse(next(path for path in SOURCES if path.name == name).read_text(encoding="utf-8"))


def test_sampler_opens_no_file_and_cli_takes_no_private_sampler_name():
    sampler = list(ast.walk(source("sampler.py")))
    assert not [node.lineno for node in sampler if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "open"]
    imported = {alias.name.split(".")[0] for node in sampler if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in sampler if isinstance(node, ast.ImportFrom)}
    assert not imported & {"os", "stat"}, imported
    # the names cli takes from sampler: its lazy table's "sampler" entry and any sampler.<name>
    taken = [name.value for node in ast.walk(source("cli.py")) if isinstance(node, ast.Dict)
             for key, names in zip(node.keys, node.values) if getattr(key, "value", None) == "sampler"
             for name in ast.walk(names) if isinstance(name, ast.Constant)]
    taken += [node.attr for node in ast.walk(source("cli.py")) if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in ("sampler", "sampler_mod")]
    assert taken and not [name for name in taken if name.startswith("_")], taken
    # sampler hands its states to outputs through cli, and only outputs builds a summary
    via_outputs = [node.lineno for node in sampler if isinstance(node, (ast.Import, ast.ImportFrom))
                   and "outputs" in {*(getattr(node, "module", None) or "").split("."),
                                     *(part for alias in node.names for part in alias.name.split("."))}]
    assert via_outputs == [], via_outputs
    cli_text = next(path for path in SOURCES if path.name == "cli.py").read_text(encoding="utf-8")
    assert [key for key in ("final_mean", "final_variance", "path_mean") if key in cli_text] == []


def test_the_check_reads_every_form_of_open():
    calls = {
        "open(p)": "r", "open(p, 'rb')": "rb", "open(p, 'w')": "w", "open(p, mode='a')": "a",
        "p.open()": "r", "p.open('wb')": "wb", "io.open(p, 'x')": "x", "open(p, m)": None,
        "os.open(p, os.O_WRONLY)": None,
    }
    for source, mode in calls.items():
        assert open_mode(ast.parse(source, mode="eval").body) == mode, source
