"""README names resolve: every backticked name rooted at a gauss_deficit
export or module (``GridField.from_callable``, ``flows.fp_evolve``) is
looked up attribute by attribute, so deleting or renaming a documented
name fails here until README follows; so does every dotted name so rooted
in the package's own docstrings and comments (``flows._lattice_pass``);
and the CLI usage block lists the flags the parser derives."""
import ast
import dataclasses
import io
import pathlib
import re
import tokenize

import gauss_deficit
from gauss_deficit import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# a dotted name at the start of a backticked span, then the span's end or
# a call's parenthesis
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(|$)")
# a dotted name in prose, not the tail of a longer one
DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")


def documented_names():
    names = set()
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                  flags=re.DOTALL)  # code blocks hold no backticked names
    for span in re.findall(r"`([^`]+)`", text):
        m = NAME.match(span.strip())
        if m and not m.group(1).startswith("_") and hasattr(
                gauss_deficit, m.group(1).split(".")[0]):
            names.add(m.group(1))
    return sorted(names)


def _prose(path):
    """The comments and docstrings of a source file."""
    text = path.read_text(encoding="utf-8")
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def source_names():
    """(file, name) for every dotted name in the package's docstrings and
    comments that is rooted at a gauss_deficit export or module."""
    names = set()
    for path in sorted(pathlib.Path(gauss_deficit.__file__).parent.glob(
            "*.py")):
        for text in _prose(path):
            names.update((path.name, name) for name in DOTTED.findall(text)
                         if hasattr(gauss_deficit, name.split(".")[0]))
    return sorted(names)


def resolves(name: str) -> bool:
    obj = gauss_deficit
    for part in name.split("."):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)}:
            return True  # a field without a class-level default
        else:
            return False
    return True


def test_readme_names_resolve():
    names = documented_names()
    assert len(names) >= 50  # the extraction still finds the API names
    assert [n for n in names if not resolves(n)] == []


def test_source_names_resolve():
    names = source_names()
    assert len(names) >= 10  # the extraction still finds the names
    assert [(f, n) for f, n in names if not resolves(n)] == []


def test_usage_block_lists_every_flag():
    # the usage block is written by hand, the parser derives its flags
    # from RunConfig: a new field must show up in README too
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```\n(gauss-deficit <command> .*?)```", text,
                          flags=re.DOTALL)
    derived = {"--" + key.replace("_", "-") for key in cli._casts()}
    assert set(re.findall(r"--[a-z][a-z-]*", block)) == derived | {
        "--config"}
