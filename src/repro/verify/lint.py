"""Determinism linter: AST pass over the package source.

The repo guarantees byte-identical output for identical configurations
(CI diffs serial vs. parallel runs, warm vs. cold caches).  That
guarantee dies quietly the first time somebody iterates a ``set``,
reads the wall clock, or orders anything by ``id()`` — so this pass
flags the hazard *classes* rather than waiting for a workload to
expose one:

========  ==========================================================
code      hazard
========  ==========================================================
RND01     iteration over a set (set literal/constructor/comprehension,
          or a local variable bound to one) without ``sorted``
RND02     wall-clock or RNG in library code (``time.time``,
          ``time.perf_counter``/``monotonic`` and their ``_ns``
          twins, ``datetime.now``/``utcnow``/``today``, the
          ``random`` module)
RND03     directory listing in filesystem order (``os.listdir`` /
          ``os.scandir`` not wrapped in ``sorted``; ``os.walk`` loops
          that neither sort ``dirnames`` in place nor sort
          ``filenames`` before use)
RND04     ``dict.popitem()`` with no arguments (LIFO on insertion
          order of a dict that may itself be populated
          nondeterministically; ``OrderedDict.popitem(last=False)``
          is deterministic and not flagged)
RND05     ``id()`` used anywhere — object identity as an ordering or
          dictionary key is address-space dependent
RND06     ``exec``/``eval`` — dynamic code is invisible to this AST
          pass, so it must carry a suppression with a reason
RND00     a suppression comment with an empty reason
========  ==========================================================

A finding on line *N* is suppressed by an inline comment on the same
line::

    now = time.time()  # repro: allow-nondet(cache aging is wall-clock)

The reason is mandatory; an empty ``allow-nondet()`` is itself a
finding (RND00).  Suppressions are deliberate, grep-able admissions —
the linter is a gate, not a style preference.
"""

from __future__ import annotations

import ast
import os
import re
from typing import List, Optional, Set

from repro.verify.report import Finding, Report

__all__ = ["lint_file", "lint_source", "lint_tree", "run_lint"]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow-nondet\(([^)]*)\)")

#: Call names treated as producing a set value.
_SET_CONSTRUCTORS = {"set", "frozenset"}

#: ``random`` module attributes are all RNG; these bare names are the
#: common ``from random import ...`` spellings.
_RANDOM_NAMES = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "getrandbits", "seed",
}

_CLOCK_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST, set_vars: Set[str]) -> bool:
    """Syntactically a set value: literal, comprehension, constructor
    call, a known set-typed local, or a union/intersection of such."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _SET_CONSTRUCTORS:
        return True
    if isinstance(node, ast.Name) and node.id in set_vars:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_vars)
                or _is_set_expr(node.right, set_vars))
    return False


class _Scope:
    """One function (or module) body: tracks locals bound to sets."""

    def __init__(self) -> None:
        self.set_vars: Set[str] = set()


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: List[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[Finding] = []
        self.scopes: List[_Scope] = [_Scope()]
        self.used_suppressions: Set[int] = set()

    # -- plumbing ------------------------------------------------------

    def _suppression(self, lineno: int) -> Optional[str]:
        if 1 <= lineno <= len(self.lines):
            m = _SUPPRESS_RE.search(self.lines[lineno - 1])
            if m:
                self.used_suppressions.add(lineno)
                return m.group(1).strip()
        return None

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        reason = self._suppression(lineno)
        if reason is not None:
            if not reason:
                self.findings.append(Finding(
                    "lint", "RND00", f"{self.path}:{lineno}",
                    "allow-nondet() suppression needs a reason"))
            return
        self.findings.append(Finding(
            "lint", code, f"{self.path}:{lineno}", message))

    @property
    def _scope(self) -> _Scope:
        return self.scopes[-1]

    def _in_scope_set_vars(self) -> Set[str]:
        return self._scope.set_vars

    # -- scope tracking ------------------------------------------------

    def _visit_function(self, node) -> None:
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if names:
            is_set = _is_set_expr(node.value, self._in_scope_set_vars())
            for name in names:
                if is_set:
                    self._scope.set_vars.add(name)
                else:
                    self._scope.set_vars.discard(name)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self._in_scope_set_vars()):
                self._scope.set_vars.add(node.target.id)
            else:
                self._scope.set_vars.discard(node.target.id)
        self.generic_visit(node)

    # -- RND01: set iteration ------------------------------------------

    def _check_iteration(self, node: ast.AST, iter_expr: ast.AST) -> None:
        if _is_set_expr(iter_expr, self._in_scope_set_vars()):
            self._flag(node, "RND01",
                       "iteration over a set — wrap in sorted() or "
                       "iterate a list/dict instead")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self._check_os_walk(node)
        self.generic_visit(node)

    def visit_comprehension_like(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_like
    visit_SetComp = visit_comprehension_like
    visit_DictComp = visit_comprehension_like
    visit_GeneratorExp = visit_comprehension_like

    # -- RND02/03/04/05: calls -----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            tail = tuple(dotted.split(".")[-2:])
            if tail in _CLOCK_ATTRS:
                self._flag(node, "RND02",
                           f"wall clock ({dotted}) in library code — "
                           f"derive times from simulated cycles, or "
                           f"suppress with a reason")
            head = dotted.split(".", 1)[0]
            if head == "random":
                self._flag(node, "RND02",
                           f"RNG ({dotted}) in library code — thread "
                           f"an explicit seeded generator instead")
            if tail in (("os", "listdir"), ("os", "scandir")) \
                    and not self._sorted_wrapped(node):
                self._flag(node, "RND03",
                           f"{dotted} returns entries in filesystem "
                           f"order — wrap in sorted()")
        if isinstance(node.func, ast.Name):
            if node.func.id in _RANDOM_NAMES \
                    and node.func.id != "random":
                # bare names from ``from random import ...``; a bare
                # ``random()`` call is far more likely a local.
                pass
            if node.func.id == "id":
                self._flag(node, "RND05",
                           "id() is address-space dependent — key or "
                           "order by a stable identifier instead")
            if node.func.id in ("exec", "eval"):
                self._flag(node, "RND06",
                           f"{node.func.id}() hides code from this "
                           f"lint — suppress with a reason")
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "popitem" and not node.args \
                and not node.keywords:
            self._flag(node, "RND04",
                       "popitem() pops in insertion order of a dict "
                       "that may be populated nondeterministically — "
                       "pop an explicit key (OrderedDict.popitem("
                       "last=False) is fine)")
        self.generic_visit(node)

    def _sorted_wrapped(self, node: ast.Call) -> bool:
        parent = getattr(node, "_repro_parent", None)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "len", "set",
                                       "frozenset"))

    # -- RND03: os.walk ------------------------------------------------

    def _check_os_walk(self, node: ast.For) -> None:
        if not (isinstance(node.iter, ast.Call)
                and _dotted(node.iter.func) in ("os.walk", "walk")):
            return
        # for root, dirs, files in os.walk(...): the loop is
        # deterministic iff dirs is sorted in place (that also fixes
        # traversal order) and files is consumed through sorted().
        names: List[Optional[str]] = [None, None, None]
        if isinstance(node.target, ast.Tuple) \
                and len(node.target.elts) == 3:
            for i, elt in enumerate(node.target.elts):
                if isinstance(elt, ast.Name):
                    names[i] = elt.id
        dirs_name, files_name = names[1], names[2]
        body_src = ast.dump(ast.Module(body=node.body, type_ignores=[]))
        ok_dirs = dirs_name is None or dirs_name.startswith("_") or (
            f"attr='sort'" in body_src
            and f"id='{dirs_name}'" in body_src)
        ok_files = files_name is None or self._files_sorted(
            node.body, files_name)
        if not (ok_dirs and ok_files):
            self._flag(node, "RND03",
                       "os.walk yields names in filesystem order — "
                       "sort dirnames in place and iterate "
                       "sorted(filenames)")

    @staticmethod
    def _files_sorted(body: List[ast.stmt], files_name: str) -> bool:
        sorted_ok = True
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id == files_name:
                    parent = getattr(sub, "_repro_parent", None)
                    wrapped = (isinstance(parent, ast.Call)
                               and isinstance(parent.func, ast.Name)
                               and parent.func.id in ("sorted", "len"))
                    in_place = (isinstance(parent, ast.Attribute)
                                and parent.attr == "sort")
                    if not (wrapped or in_place):
                        sorted_ok = False
        return sorted_ok


def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint python ``source``; ``path`` labels the findings."""
    tree = ast.parse(source)
    _link_parents(tree)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    # Suppression comments that never matched a finding are stale —
    # surface them so they cannot mask future regressions silently.
    # Lines inside string literals (docstrings quoting the syntax)
    # are not comments and are skipped.
    literal_lines: Set[int] = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            end = getattr(sub, "end_lineno", sub.lineno)
            literal_lines.update(range(sub.lineno, end + 1))
    for lineno, line in enumerate(source.splitlines(), start=1):
        if lineno in literal_lines:
            continue
        m = _SUPPRESS_RE.search(line)
        if m and lineno not in linter.used_suppressions:
            linter.findings.append(Finding(
                "lint", "RND00", f"{path}:{lineno}",
                "allow-nondet suppression matches no finding — "
                "remove it"))
    return sorted(linter.findings,
                  key=lambda f: (f.location, f.code, f.message))


def lint_file(path: str) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def lint_tree(root: str, rel_to: Optional[str] = None) -> List[Finding]:
    """Lint every ``.py`` file under ``root`` (deterministic order)."""
    findings: List[Finding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            label = os.path.relpath(path, rel_to) if rel_to else path
            with open(path, "r", encoding="utf-8") as fh:
                findings.extend(lint_source(fh.read(), label))
    return findings


def run_lint(root: Optional[str] = None) -> Report:
    """Lint the installed ``repro`` package source tree."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    rel_root = os.path.dirname(os.path.dirname(root))
    report = Report()
    report.passes.append("lint")
    report.findings.extend(lint_tree(root, rel_to=rel_root))
    files = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        files += sum(1 for n in sorted(filenames) if n.endswith(".py"))
    report.stats["lint.files"] = files
    report.stats["lint.findings"] = len(report.findings)
    return report
