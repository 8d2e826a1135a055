"""Taint determinism analysis: the dataflow upgrade of the linter.

The per-statement linter (:mod:`repro.verify.lint`) pattern-matches
hazard *sites*: a ``for`` over a set expression, an unsorted
``os.listdir`` call.  This pass tracks the hazard *values* through one
module with a forward dataflow analysis over
:mod:`repro.verify.flow.cfg` graphs (solved by
:func:`repro.verify.flow.cfg.solve_forward`):

- **Unordered values** (set literals/comprehensions/constructors,
  set-algebra results, and the *returns of module functions and
  methods that produce them* — the laundering case the linter cannot
  see) are flagged when iterated (``RND10``).
- **Directory listings** (``os.listdir``/``os.scandir``) are flagged
  only when a listing *reaches* an iteration still unsorted
  (``RND11``) — an intermediate ``names.sort()`` or ``sorted(...)``
  provably sanitizes the value, killing the linter's false positive
  on that shape.
- **Wall clock / RNG** (``RND12``) and **exec/eval** (``RND13``) are
  intrinsically nondeterministic at the call site; they are flagged
  where they fire, at the same lines as the linter's RND02/RND06, so
  every existing suppression stays load-bearing under this pass alone.

Suppression comments (``# repro: allow-nondet(reason)``) work exactly
as in the linter: on the sink line for iteration findings, on the call
line for source findings.  :func:`stale_suppressions` closes the loop
across both passes: a suppression that neither the linter nor this
analysis uses is dead and must be removed.

Scoping decisions (deliberate, shared with the linter so this pass
reports zero *new* findings on a lint-clean tree): taints propagate
through locals, branches, loops, aliases and intra-module call
returns, but not through module-level constants read inside functions,
container element structure, or ``list``/``tuple`` conversions of
sets — a converted set has a fixed (if arbitrary) order per build, and
"fixing" such sites with ``sorted`` would change simulated op streams
and break the byte-identical baselines.  A flow that genuinely needs a
taint-only suppression should be restructured instead; the linter's
own stale-suppression rule would flag the comment.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.verify.flow.cfg import CFG, Unit, build_cfg, solve_forward
from repro.verify.report import Finding, Report

__all__ = ["taint_source", "run_taint", "stale_suppressions"]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow-nondet\(([^)]*)\)")

_EMPTY: FrozenSet[str] = frozenset()
_SET: FrozenSet[str] = frozenset(["set"])
_LISTING: FrozenSet[str] = frozenset(["listing"])

#: set algebra operators that keep a set a set
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: receiver methods that return another unordered set
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}

_CLOCK_ATTRS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
    ("datetime", "today"), ("date", "today"),
}

_LISTING_ATTRS = {("os", "listdir"), ("os", "scandir")}

Env = Dict[str, FrozenSet[str]]


def _join_env(a: Env, b: Env) -> Env:
    out = dict(a)
    for name, tags in b.items():
        out[name] = out.get(name, _EMPTY) | tags
    return out


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _shallow_functions(body: List[ast.stmt]
                       ) -> List[Tuple[str, ast.FunctionDef]]:
    """(name, def) for module functions and class methods, one level —
    summaries are keyed by bare name, which is how intra-module call
    sites (``helper(...)`` / ``self.helper(...)``) spell them."""
    out: List[Tuple[str, ast.FunctionDef]] = []
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    out.append((item.name, item))
    return out


class _FileTaint:
    """Per-file analysis outcome."""

    __slots__ = ("findings", "used_suppressions")

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.used_suppressions: Set[int] = set()


class _Analyzer:
    def __init__(self, tree: ast.Module, lines: List[str],
                 path: str) -> None:
        self.tree = tree
        self.lines = lines
        self.path = path
        self.out = _FileTaint()
        self.functions = _shallow_functions(tree.body)
        #: bare function/method name -> taint tags of its return value
        self.summaries: Dict[str, FrozenSet[str]] = {
            name: _EMPTY for name, _ in self.functions}

    # -- suppressions --------------------------------------------------

    def _suppressed(self, lineno: int) -> bool:
        if 1 <= lineno <= len(self.lines):
            m = _SUPPRESS_RE.search(self.lines[lineno - 1])
            if m:
                self.out.used_suppressions.add(lineno)
                return True
        return False

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if self._suppressed(lineno):
            return
        self.out.findings.append(Finding(
            "taint", code, f"{self.path}:{lineno}", message))

    # -- expression taint ----------------------------------------------

    def taint_of(self, node: ast.expr, env: Env) -> FrozenSet[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            if self._suppressed(node.lineno):
                return _EMPTY
            return _SET
        if isinstance(node, ast.Name):
            return env.get(node.id, _EMPTY)
        if isinstance(node, ast.Call):
            return self._call_taint(node, env)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            left = self.taint_of(node.left, env)
            right = self.taint_of(node.right, env)
            return (left | right) & _SET
        if isinstance(node, (ast.BoolOp,)):
            out = _EMPTY
            for value in node.values:
                out |= self.taint_of(value, env)
            return out
        if isinstance(node, ast.IfExp):
            return (self.taint_of(node.body, env)
                    | self.taint_of(node.orelse, env))
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value, env)
        if isinstance(node, ast.Await):
            return self.taint_of(node.value, env)
        return _EMPTY

    def _call_taint(self, node: ast.Call, env: Env) -> FrozenSet[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset"):
                if self._suppressed(node.lineno):
                    return _EMPTY
                return _SET
            if func.id in ("sorted", "list", "tuple"):
                return _EMPTY
            if func.id in self.summaries and func.id not in env:
                return self.summaries[func.id]
            return _EMPTY
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted:
                tail = tuple(dotted.split(".")[-2:])
                if tail in _LISTING_ATTRS:
                    if self._suppressed(node.lineno):
                        return _EMPTY
                    return _LISTING
            if func.attr in _SET_METHODS:
                base = self.taint_of(func.value, env)
                if "set" in base:
                    return _SET
                return _EMPTY
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in self.summaries):
                return self.summaries[func.attr]
        return _EMPTY

    # -- transfer function ---------------------------------------------

    def _assign_names(self, target: ast.expr, tags: FrozenSet[str],
                      env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = tags
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking a container: elements are scalars here.
            for elt in target.elts:
                self._assign_names(elt, _EMPTY, env)
        elif isinstance(target, ast.Starred):
            self._assign_names(target.value, _EMPTY, env)

    def transfer(self, unit: Unit, env: Env) -> Env:
        env = dict(env)
        node = unit.node
        if unit.role == "loop":
            # for <target> in <iter>: elements of sets/listings are
            # plain values; the *iteration* is the sink, checked in
            # the reporting pass.
            self._assign_names(node.target, _EMPTY, env)
            return env
        if unit.role == "branch":
            return env
        if isinstance(node, ast.Assign):
            tags = self.taint_of(node.value, env)
            for target in node.targets:
                self._assign_names(target, tags, env)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign_names(node.target,
                                   self.taint_of(node.value, env), env)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                if isinstance(node.op, _SET_OPS):
                    env[node.target.id] = (
                        env.get(node.target.id, _EMPTY)
                        | (self.taint_of(node.value, env) & _SET))
                else:
                    env[node.target.id] = _EMPTY
        elif isinstance(node, ast.Expr):
            value = node.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "sort"
                    and isinstance(value.func.value, ast.Name)):
                # names.sort() sanitizes the listing in place.
                env[value.func.value.id] = _EMPTY
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    self._assign_names(item.optional_vars, _EMPTY, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # Leave the name unbound so call sites still consult the
            # return-taint summary (an env entry would shadow it).
            env.pop(node.name, None)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        return env

    # -- sinks and sources ---------------------------------------------

    def _unit_exprs(self, unit: Unit) -> List[ast.expr]:
        node = unit.node
        if unit.role == "branch":
            return [node]  # the test expression itself
        if unit.role == "loop":
            return [node.iter]
        out: List[ast.expr] = []
        for field in ("value", "exc", "test", "msg"):
            sub = getattr(node, field, None)
            if isinstance(sub, ast.expr):
                out.append(sub)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            out.extend(item.context_expr for item in node.items)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript):
                        out.append(sub.slice)
        return out

    def _flag_iteration(self, node: ast.AST, tags: FrozenSet[str],
                        what: str) -> None:
        if "set" in tags:
            self._flag(node, "RND10",
                       f"{what} iterates an unordered set-derived "
                       f"value — order it (sorted) before iterating")
        elif "listing" in tags:
            self._flag(node, "RND11",
                       f"{what} iterates a directory listing that was "
                       f"never sorted — call .sort() or wrap the "
                       f"listing in sorted()")

    def check_unit(self, unit: Unit, env: Env) -> None:
        if unit.role == "loop":
            tags = self.taint_of(unit.node.iter, env)
            self._flag_iteration(unit.node, tags, "for loop")
        for expr in self._unit_exprs(unit):
            self._check_expr(expr, env)

    def _check_expr(self, expr: ast.expr, env: Env) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._check_call_site(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    tags = self.taint_of(gen.iter, env)
                    self._flag_iteration(node, tags, "comprehension")
            elif isinstance(node, ast.YieldFrom):
                tags = self.taint_of(node.value, env)
                self._flag_iteration(node, tags, "yield from")

    def _check_call_site(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)
        if dotted:
            tail = tuple(dotted.split(".")[-2:])
            if tail in _CLOCK_ATTRS:
                self._flag(node, "RND12",
                           f"wall clock ({dotted}) — a nondeterministic "
                           f"source; derive times from simulated cycles "
                           f"or suppress with a reason")
            if dotted.split(".", 1)[0] == "random":
                self._flag(node, "RND12",
                           f"RNG ({dotted}) — thread an explicit seeded "
                           f"generator instead")
        if isinstance(func, ast.Name) and func.id in ("exec", "eval"):
            self._flag(node, "RND13",
                       f"{func.id}() runs code this dataflow analysis "
                       f"cannot see — suppress with a reason")

    # -- per-function driver -------------------------------------------

    def _run_function(self, fn: ast.FunctionDef,
                      report: bool) -> FrozenSet[str]:
        cfg = build_cfg(fn)
        in_states, _ = solve_forward(
            cfg, {},
            lambda unit, env: self.transfer(unit, env),
            _join_env, lambda a, b: a == b)
        returned: FrozenSet[str] = _EMPTY
        for bid in cfg.rpo():
            env = in_states.get(bid)
            if env is None:
                continue
            env = dict(env)
            for unit in cfg.block(bid).units:
                if report:
                    self.check_unit(unit, env)
                node = unit.node
                if (unit.role == "stmt" and isinstance(node, ast.Return)
                        and node.value is not None):
                    returned |= self.taint_of(node.value, env)
                env = self.transfer(unit, env)
        return returned

    def analyze(self) -> _FileTaint:
        # Phase 1: return-taint summaries to a fixpoint, so laundering
        # through call chains (a() returns b()'s set) converges.
        for _ in range(3):
            changed = False
            for name, fn in self.functions:
                tags = self._run_function(fn, report=False)
                if tags != self.summaries[name]:
                    self.summaries[name] = tags
                    changed = True
            if not changed:
                break
        # Phase 2: report sinks in every function and at module level.
        for _, fn in self.functions:
            self._run_function(fn, report=True)
        module_fn = ast.parse("def _module_(): pass").body[0]
        module_fn.body = list(self.tree.body)
        self._run_function(module_fn, report=True)
        self.out.findings.sort(
            key=lambda f: (f.location, f.code, f.message))
        return self.out


def taint_source(source: str, path: str = "<string>") -> _FileTaint:
    """Analyze one module's source.  Returns findings plus the set of
    suppression lines this analysis relied on (for the stale sweep)."""
    tree = ast.parse(source)
    return _Analyzer(tree, source.splitlines(), path).analyze()


# ----------------------------------------------------------------------
# Tree drivers
# ----------------------------------------------------------------------

def _iter_tree(root: str, rel_to: Optional[str]):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            label = os.path.relpath(path, rel_to) if rel_to else path
            with open(path, "r", encoding="utf-8") as fh:
                yield label, fh.read()


def _default_root() -> Tuple[str, str]:
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return root, os.path.dirname(os.path.dirname(root))


def run_taint(root: Optional[str] = None) -> Report:
    """Taint-analyze the package tree; report flow findings."""
    if root is None:
        root, rel_to = _default_root()
    else:
        rel_to = None
    report = Report()
    report.passes.append("taint")
    files = 0
    for label, text in _iter_tree(root, rel_to):
        files += 1
        report.findings.extend(taint_source(text, label).findings)
    report.stats["taint.files"] = files
    report.stats["taint.findings"] = len(report.findings)
    return report


def stale_suppressions(root: Optional[str] = None) -> List[str]:
    """Suppression comments used by *neither* the linter nor the taint
    analysis — dead weight that could mask a future regression.

    Returns ``path:lineno`` strings; CI asserts the list is empty.
    """
    from repro.verify.lint import lint_source

    if root is None:
        root, rel_to = _default_root()
    else:
        rel_to = None
    stale: List[str] = []
    for label, text in _iter_tree(root, rel_to):
        lint_findings = lint_source(text, label)
        unused_by_lint = set()
        for finding in lint_findings:
            if (finding.code == "RND00"
                    and "matches no finding" in finding.message):
                unused_by_lint.add(int(finding.location.rsplit(":", 1)[1]))
        if not unused_by_lint:
            continue
        used_by_taint = taint_source(text, label).used_suppressions
        for lineno in sorted(unused_by_lint - used_by_taint):
            stale.append(f"{label}:{lineno}")
    return stale
