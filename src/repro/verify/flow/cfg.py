"""Control-flow graphs over Python function ASTs.

A :class:`CFG` decomposes one ``ast.FunctionDef`` body into basic
blocks of :class:`Unit`\\s.  A unit is either a simple statement
(``role == "stmt"``), the condition of an ``if``/``while``
(``role == "branch"``), or the iteration of a ``for`` loop
(``role == "loop"``, carrying the target and the iterable).  Branch
and loop units end their block; the block's successor order is
(taken, not-taken) for branches and (body, after-loop) for loops.

The graph is deliberately coarse where the analyses do not need
precision: ``try`` bodies are modeled as "handler may run after any
prefix" by giving the body's entry *and* exit an edge into each
handler, and ``with`` is inlined.  The client is the taint
determinism analysis: worklist dataflow over blocks, solved by
:func:`solve_forward`.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Unit", "Block", "CFG", "build_cfg", "solve_forward"]


class Unit:
    """One atomic step: a simple statement, branch test, or loop step."""

    __slots__ = ("role", "node")

    def __init__(self, role: str, node: ast.AST) -> None:
        self.role = role  # "stmt" | "branch" | "loop"
        self.node = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Unit({self.role}, line {getattr(self.node, 'lineno', '?')})"


class Block:
    """A straight-line run of units with explicit successor edges."""

    __slots__ = ("bid", "units", "succs", "preds")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.units: List[Unit] = []
        self.succs: List[int] = []
        self.preds: List[int] = []


class CFG:
    """Blocks of one function; ``entry`` and ``exit`` are block ids."""

    def __init__(self, fn: ast.AST) -> None:
        self.fn = fn
        self.blocks: Dict[int, Block] = {}
        self.entry = 0
        self.exit = 1

    def block(self, bid: int) -> Block:
        return self.blocks[bid]

    def rpo(self) -> List[int]:
        """Block ids in reverse postorder from the entry (unreachable
        blocks excluded) — the canonical forward-dataflow order."""
        seen = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            seen.add(bid)
            for succ in self.blocks[bid].succs:
                if succ not in seen:
                    visit(succ)
            order.append(bid)

        visit(self.entry)
        order.reverse()
        return order


class _Builder:
    def __init__(self, fn: ast.AST) -> None:
        self.cfg = CFG(fn)
        self._next = 0
        self._new()  # entry
        self._new()  # exit

    def _new(self) -> Block:
        block = Block(self._next)
        self.cfg.blocks[self._next] = block
        self._next += 1
        return block

    def _edge(self, src: int, dst: int) -> None:
        self.cfg.blocks[src].succs.append(dst)
        self.cfg.blocks[dst].preds.append(src)

    def build(self) -> CFG:
        end = self._body(self.cfg.fn.body, self.cfg.entry, loops=[])
        if end is not None:
            self._edge(end, self.cfg.exit)
        return self.cfg

    def _body(self, body: List[ast.stmt], cur: Optional[int],
              loops: List[Tuple[int, int]]) -> Optional[int]:
        """Thread ``body`` starting at block ``cur``.  Returns the block
        the fall-through path ends in, or None if every path jumped."""
        for stmt in body:
            if cur is None:
                # Dead code after a jump: still build its subgraph so
                # units exist, but leave it unreachable.
                cur = self._new().bid
            cur = self._stmt(stmt, cur, loops)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int,
              loops: List[Tuple[int, int]]) -> Optional[int]:
        blocks = self.cfg.blocks
        if isinstance(stmt, ast.If):
            blocks[cur].units.append(Unit("branch", stmt.test))
            then_entry = self._new().bid
            self._edge(cur, then_entry)
            then_end = self._body(stmt.body, then_entry, loops)
            if stmt.orelse:
                else_entry = self._new().bid
                self._edge(cur, else_entry)
                else_end = self._body(stmt.orelse, else_entry, loops)
            else:
                else_end = cur
            if then_end is None and else_end is None:
                return None
            join = self._new().bid
            if then_end is not None:
                self._edge(then_end, join)
            if else_end is not None:
                self._edge(else_end, join)
            return join
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = self._new().bid
            self._edge(cur, header)
            if isinstance(stmt, ast.While):
                blocks[header].units.append(Unit("branch", stmt.test))
            else:
                blocks[header].units.append(Unit("loop", stmt))
            body_entry = self._new().bid
            after = self._new().bid
            self._edge(header, body_entry)
            self._edge(header, after)
            loops.append((header, after))
            body_end = self._body(stmt.body, body_entry, loops)
            loops.pop()
            if body_end is not None:
                self._edge(body_end, header)
            if stmt.orelse:
                # ``else`` runs on normal loop exit; fold into ``after``.
                after = self._body(stmt.orelse, after, loops)
                if after is None:
                    return None
            return after
        if isinstance(stmt, ast.Break):
            blocks[cur].units.append(Unit("stmt", stmt))
            if loops:
                self._edge(cur, loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            blocks[cur].units.append(Unit("stmt", stmt))
            if loops:
                self._edge(cur, loops[-1][0])
            return None
        if isinstance(stmt, (ast.Return, ast.Raise)):
            blocks[cur].units.append(Unit("stmt", stmt))
            self._edge(cur, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Try):
            body_entry = self._new().bid
            self._edge(cur, body_entry)
            body_end = self._body(stmt.body, body_entry, loops)
            if body_end is not None and stmt.orelse:
                body_end = self._body(stmt.orelse, body_end, loops)
            ends = [] if body_end is None else [body_end]
            for handler in stmt.handlers:
                h_entry = self._new().bid
                # The handler may run after any prefix of the body:
                # approximate with edges from the body's entry and end.
                self._edge(body_entry, h_entry)
                if body_end is not None:
                    self._edge(body_end, h_entry)
                h_end = self._body(handler.body, h_entry, loops)
                if h_end is not None:
                    ends.append(h_end)
            if stmt.finalbody:
                f_entry = self._new().bid
                for end in ends:
                    self._edge(end, f_entry)
                if not ends:
                    self._edge(body_entry, f_entry)
                return self._body(stmt.finalbody, f_entry, loops)
            if not ends:
                return None
            join = self._new().bid
            for end in ends:
                self._edge(end, join)
            return join
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            blocks[cur].units.append(Unit("stmt", stmt))
            return self._body(stmt.body, cur, loops)
        # Simple statement (including nested function/class defs, which
        # the analyses treat as opaque values).
        blocks[cur].units.append(Unit("stmt", stmt))
        return cur


def build_cfg(fn: ast.AST) -> CFG:
    """Build the CFG of one ``ast.FunctionDef``/``AsyncFunctionDef``."""
    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise TypeError(f"build_cfg needs a function node, got {fn!r}")
    return _Builder(fn).build()


def solve_forward(
    cfg: CFG,
    init: object,
    transfer: Callable[[Unit, object], object],
    join: Callable[[object, object], object],
    equals: Callable[[object, object], bool],
    max_passes: int = 64,
) -> Tuple[Dict[int, object], Dict[int, object]]:
    """Forward fixpoint over ``cfg``.  Returns (in, out) block states.

    ``transfer`` folds one :class:`Unit` into a state; states must be
    treated as immutable by the callback (return a new one).
    """
    order = cfg.rpo()
    in_states: Dict[int, object] = {}
    out_states: Dict[int, object] = {}
    for _ in range(max_passes):
        changed = False
        for bid in order:
            block = cfg.block(bid)
            if bid == cfg.entry:
                state = init
            else:
                preds = [out_states[p] for p in block.preds
                         if p in out_states]
                if not preds:
                    continue
                state = preds[0]
                for other in preds[1:]:
                    state = join(state, other)
            in_states[bid] = state
            for unit in block.units:
                state = transfer(unit, state)
            old = out_states.get(bid)
            if old is None or not equals(old, state):
                out_states[bid] = state
                changed = True
        if not changed:
            return in_states, out_states
    return in_states, out_states  # widened by the pass cap
