"""Names the docs cite resolve in the package, so a retired constant
cannot linger in README.md, a docstring or a comment."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import homfit

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SOURCES = sorted(p for p in Path(homfit.__file__).parent.glob("*.py")
                 if p.stem != "__main__")      # importing it runs the CLI
MODULES = {p.stem: importlib.import_module(f"homfit.{p.stem}")
           for p in SOURCES if p.stem != "__init__"}
MODULES["homfit"] = homfit
CONSTANT = re.compile(r"(?<!\w)_?[A-Z]{2,}[A-Z0-9]*_[A-Z0-9_]+")   # _FULL_STEP whole
DOTTED = re.compile(r"`(\w+)\.(\w+)`")


def prose(path):
    """The docstrings and comments of one source file."""
    text = path.read_text()
    parts = [tok.string for tok in
             tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            parts.append(ast.get_docstring(node, clean=False) or "")
    return "\n".join(parts)


def test_cited_constants_exist():
    docs = {"README.md": README, **{p.name: prose(p) for p in SOURCES}}
    missing = {(doc, name) for doc, text in docs.items()
               for name in CONSTANT.findall(text)
               if not any(hasattr(mod, name) for mod in MODULES.values())}
    assert not missing


def test_readme_module_attributes_exist():
    cited = [(mod, name) for mod, name in DOTTED.findall(README)
             if mod in MODULES]
    missing = [f"{mod}.{name}" for mod, name in cited
               if not hasattr(MODULES[mod], name)]
    assert cited and not missing
