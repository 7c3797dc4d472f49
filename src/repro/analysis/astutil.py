"""Small shared AST helpers for the analysis rules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

#: the packages whose determinism/purity/typing the perf + parallel
#: layers depend on (see DESIGN.md "Static analysis"); matching is by
#: prefix, so subpackages ride along (repro.perf covers
#: repro.perf.serve and repro.perf.server, the warm worker pool)
GATED_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.features",
    "repro.algorithms",
    "repro.htmlmod",
    "repro.perf",
    "repro.pipeline",
    "repro.monitor",
    "repro.obs.health",
)

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's callee, when it is a plain name chain."""
    return dotted_name(node.func)


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, bool]]:
    """All function definitions with a ``is_method`` flag.

    ``is_method`` is True when the def sits directly in a class body
    (its first parameter is a self/cls unless decorated static).
    """
    class _Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: List[Tuple[ast.AST, bool]] = []

        def _visit_func(self, node: ast.AST, parent_is_class: bool) -> None:
            self.found.append((node, parent_is_class))

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._visit_func(child, True)
                    self._descend(child)
                else:
                    self.visit(child)

        def generic_visit(self, node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._visit_func(child, False)
                    self._descend(child)
                else:
                    self.visit(child)

        def _descend(self, func: ast.AST) -> None:
            # Walk the function body for nested defs/classes.
            for child in ast.iter_child_nodes(func):
                self.visit(child)

    visitor = _Visitor()
    visitor.visit(tree)
    for item in visitor.found:
        yield item


def is_staticmethod(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in decorators
    )


def all_arguments(args: ast.arguments) -> List[ast.arg]:
    """Every parameter of a signature, in declaration order."""
    out: List[ast.arg] = []
    out.extend(getattr(args, "posonlyargs", []))
    out.extend(args.args)
    if args.vararg is not None:
        out.append(args.vararg)
    out.extend(args.kwonlyargs)
    if args.kwarg is not None:
        out.append(args.kwarg)
    return out
