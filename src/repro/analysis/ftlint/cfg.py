"""A pure-stdlib control-flow graph over one function's AST.

The flow-sensitive rules (FT007–FT010) reason about *paths* — "can this
``write_notify`` reach function exit with no wait on some path?" — which
the per-statement visitors of FT001–FT006 cannot see.  :func:`build_cfg`
turns a ``FunctionDef`` body into basic blocks and edges:

* every **simple statement** is its own block (one element per block
  keeps exception edges out of try bodies precise and the transfer
  functions trivial);
* **branches** (``if``/``match``), **loops** (``while``/``for``, both
  with their ``else`` clauses; a constant-true ``while`` has no exit
  edge, so code after ``while True`` without ``break`` is correctly
  unreachable), ``break``/``continue``/``return``/``raise``;
* **``try``/``except``/``finally``**: each block inside the ``try`` body
  gets an exception edge to every handler; abrupt exits (``break``,
  ``continue``, ``return``, ``raise``) route *through a fresh copy of
  every enclosing ``finally`` body* before taking effect — the classic
  duplication scheme, which keeps the dataflow engine free of special
  cases at the cost of a few extra blocks;
* **``with``**: context-manager expressions are elements; a manager
  recognisably exception-swallowing (``contextlib.suppress``) adds an
  escape edge from every block of its body to the join point;
* **generators**: ``yield``/``yield from`` positions are recorded on
  their blocks (:attr:`Block.has_yield`, :attr:`CFG.yield_blocks`).  A
  yield is *not* an exit: a resumed generator continues.

Nested function/class definitions are opaque single elements: every
``def`` gets its own CFG when the rules iterate over a module.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

__all__ = ["Block", "CFG", "build_cfg"]


class Block:
    """One basic block: at most one AST element plus its edges."""

    __slots__ = ("idx", "stmt", "succs", "preds", "has_yield", "kind")

    def __init__(self, idx: int, stmt: Optional[ast.AST] = None,
                 kind: str = "stmt") -> None:
        self.idx = idx
        #: the single AST element of this block (``None`` for entry/exit
        #: and pure join points)
        self.stmt = stmt
        self.succs: Set[int] = set()
        self.preds: Set[int] = set()
        #: a ``yield``/``yield from`` occurs inside this element
        self.has_yield = False
        #: "entry" | "exit" | "stmt" | "join" — presentation only
        self.kind = kind


class CFG:
    """Blocks + edges of one function, entry and exit distinguished."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.blocks: List[Block] = []
        self.entry = self._new(kind="entry")
        self.exit = self._new(kind="exit")

    # ------------------------------------------------------------------
    def _new(self, stmt: Optional[ast.AST] = None, kind: str = "stmt") -> Block:
        block = Block(len(self.blocks), stmt, kind)
        self.blocks.append(block)
        return block

    def _edge(self, src: Block, dst: Block) -> None:
        src.succs.add(dst.idx)
        dst.preds.add(src.idx)

    # ------------------------------------------------------------------
    @property
    def yield_blocks(self) -> List[Block]:
        return [b for b in self.blocks if b.has_yield]

    def reachable_from(self, start: int) -> Set[int]:
        """Block indices reachable from ``start`` (excluding it unless
        it lies on a cycle through itself)."""
        seen: Set[int] = set()
        frontier = list(self.blocks[start].succs)
        while frontier:
            idx = frontier.pop()
            if idx in seen:
                continue
            seen.add(idx)
            frontier.extend(self.blocks[idx].succs)
        return seen

    def in_cycle(self, idx: int) -> bool:
        """Is the block on a cycle (reachable from itself)?"""
        return idx in self.reachable_from(idx)

    def describe(self) -> str:
        """Debug rendering: one line per block."""
        lines = []
        for block in self.blocks:
            label = block.kind
            if block.stmt is not None:
                label = ast.dump(block.stmt)[:60]
            y = " [yield]" if block.has_yield else ""
            lines.append(
                f"B{block.idx}{y} {label} -> "
                f"{sorted(block.succs) if block.succs else '-'}"
            )
        return "\n".join(lines)


def _contains_yield(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _is_suppressing_with(item: ast.withitem) -> bool:
    """``with contextlib.suppress(...)`` (or any ``*.suppress(...)``)."""
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    return name == "suppress"


def _const_test(test: ast.AST) -> Optional[bool]:
    """Truthiness of a constant loop/branch test, or None if dynamic."""
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return None


class _Builder:
    """Recursive-descent CFG construction with loop/finally stacks."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: (continue_target, break_target, n_finally_at_entry)
        self.loops: List[Tuple[Block, Block, int]] = []
        #: finalbody statement lists of enclosing try/finally constructs
        self.finallies: List[List[ast.stmt]] = []
        #: handler entry points of enclosing try bodies (innermost last);
        #: each entry is (handler_blocks, depth_of_finally_stack)
        self.handlers: List[Tuple[List[Block], int]] = []

    # ------------------------------------------------------------------
    def element(self, stmt: ast.AST, preds: List[Block]) -> Block:
        """A one-statement block wired after ``preds``."""
        block = self.cfg._new(stmt)
        if _contains_yield(stmt):
            block.has_yield = True
        for pred in preds:
            self.cfg._edge(pred, block)
        # a statement inside a try body may raise into every live handler
        for handler_blocks, _depth in self.handlers:
            for handler in handler_blocks:
                self.cfg._edge(block, handler)
        return block

    def join(self, preds: List[Block]) -> Block:
        if len(preds) == 1:
            return preds[0]
        block = self.cfg._new(kind="join")
        for pred in preds:
            self.cfg._edge(pred, block)
        return block

    # ------------------------------------------------------------------
    # abrupt exits: run enclosing finally bodies (innermost first), then
    # jump to the target
    # ------------------------------------------------------------------
    def _through_finallies(self, frontier: List[Block],
                           down_to: int) -> List[Block]:
        """Build copies of the finally bodies above depth ``down_to``."""
        for finalbody in reversed(self.finallies[down_to:]):
            # the copy runs outside its own try: pop the scope stacks so
            # a raise inside the finally does not loop back into the
            # handlers it is escaping
            saved_fin, saved_hnd = self.finallies, self.handlers
            self.finallies = self.finallies[:down_to]
            self.handlers = [h for h in self.handlers
                             if h[1] <= down_to]
            frontier = self.stmts(finalbody, frontier)
            self.finallies, self.handlers = saved_fin, saved_hnd
            if not frontier:
                break  # the finally itself diverges (raise/return)
        return frontier

    def abrupt(self, stmt: ast.AST, preds: List[Block], target: Block,
               finally_floor: int) -> None:
        block = self.element(stmt, preds)
        frontier = self._through_finallies([block], finally_floor)
        for blk in frontier:
            self.cfg._edge(blk, target)

    # ------------------------------------------------------------------
    def stmts(self, body: Sequence[ast.stmt],
              frontier: List[Block]) -> List[Block]:
        """Wire ``body`` after ``frontier``; returns the fall-through
        frontier (empty = control never falls off the end)."""
        for stmt in body:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier: List[Block]) -> List[Block]:
        if isinstance(stmt, ast.If):
            return self.if_(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self.while_(stmt, frontier)
        if isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            return self.for_(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self.try_(stmt, frontier)
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            return self.with_(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self.match_(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self.abrupt(stmt, frontier, self.cfg.exit, 0)
            return []
        if isinstance(stmt, ast.Break):
            cont, brk, floor = self.loops[-1]
            self.abrupt(stmt, frontier, brk, floor)
            return []
        if isinstance(stmt, ast.Continue):
            cont, brk, floor = self.loops[-1]
            self.abrupt(stmt, frontier, cont, floor)
            return []
        # simple statement (incl. nested def/class, treated opaquely)
        return [self.element(stmt, frontier)]

    # ------------------------------------------------------------------
    def if_(self, stmt: ast.If, frontier: List[Block]) -> List[Block]:
        test = self.element(stmt.test, frontier)
        const = _const_test(stmt.test)
        out: List[Block] = []
        if const is not False:
            out.extend(self.stmts(stmt.body, [test]))
        if const is not True:
            if stmt.orelse:
                out.extend(self.stmts(stmt.orelse, [test]))
            else:
                out.append(test)
        return out

    def while_(self, stmt: ast.While, frontier: List[Block]) -> List[Block]:
        head = self.element(stmt.test, frontier)
        after = self.cfg._new(kind="join")
        const = _const_test(stmt.test)
        self.loops.append((head, after, len(self.finallies)))
        body_out = self.stmts(stmt.body, [head]) if const is not False else []
        self.loops.pop()
        for blk in body_out:
            self.cfg._edge(blk, head)  # back edge
        # normal loop exit (test false) runs the else clause, then after;
        # while True never exits normally — only break reaches `after`
        if const is not True:
            else_out = self.stmts(stmt.orelse, [head])
            for blk in else_out:
                self.cfg._edge(blk, after)
        return [after] if after.preds else []

    def for_(self, stmt: ast.For, frontier: List[Block]) -> List[Block]:
        head = self.element(stmt.iter, frontier)
        after = self.cfg._new(kind="join")
        self.loops.append((head, after, len(self.finallies)))
        body_out = self.stmts(stmt.body, [head])
        self.loops.pop()
        for blk in body_out:
            self.cfg._edge(blk, head)
        else_out = self.stmts(stmt.orelse, [head])  # exhausted iterator
        for blk in else_out:
            self.cfg._edge(blk, after)
        return [after] if after.preds else []

    def with_(self, stmt: ast.With, frontier: List[Block]) -> List[Block]:
        swallows = any(_is_suppressing_with(item) for item in stmt.items)
        for item in stmt.items:
            entry = self.element(item.context_expr, frontier)
            frontier = [entry]
        first_body_block = len(self.cfg.blocks)
        out = self.stmts(stmt.body, frontier)
        if swallows:
            # an exception anywhere in the body lands at the join point —
            # always a fresh block, so the escape edge bypasses the last
            # body statement rather than landing on it
            after = self.cfg._new(kind="join")
            for blk in out:
                self.cfg._edge(blk, after)
            for idx in range(first_body_block, len(self.cfg.blocks)):
                block = self.cfg.blocks[idx]
                if block is not after and block.kind == "stmt":
                    self.cfg._edge(block, after)
            for blk in frontier:  # body may abort before its first stmt
                self.cfg._edge(blk, after)
            return [after]
        return out

    def match_(self, stmt: ast.Match, frontier: List[Block]) -> List[Block]:
        subject = self.element(stmt.subject, frontier)
        out: List[Block] = []
        exhaustive = False
        for case in stmt.cases:
            out.extend(self.stmts(case.body, [subject]))
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                exhaustive = True  # bare `case _:`
        if not exhaustive:
            out.append(subject)  # no case matched
        return out

    def try_(self, stmt: ast.Try, frontier: List[Block]) -> List[Block]:
        has_finally = bool(stmt.finalbody)
        if has_finally:
            self.finallies.append(stmt.finalbody)
        finally_floor = len(self.finallies) - (1 if has_finally else 0)

        # handler entry points exist before the body is built, so body
        # blocks can raise into them
        handler_entries: List[Block] = []
        for handler in stmt.handlers:
            entry = self.element(handler, [])
            handler_entries.append(entry)

        if handler_entries:
            self.handlers.append((handler_entries, len(self.finallies)))
        body_out = self.stmts(stmt.body, frontier)
        if handler_entries:
            self.handlers.pop()
        if not body_out and not stmt.handlers and not has_finally:
            return []

        # try/else runs only when the body completed without exception
        else_out = self.stmts(stmt.orelse, body_out) if stmt.orelse \
            else body_out

        handler_out: List[Block] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_out.extend(self.stmts(handler.body, [entry]))
        if not handler_entries and frontier:
            # no handlers: an exception in the body still runs the
            # finally and propagates — modelled below via the body
            # blocks' lack of handler edges (they flow to exit through
            # the normal raise routing only when explicit)
            pass

        normal = else_out + handler_out
        if has_finally:
            self.finallies.pop()
            # the on-the-normal-path copy of the finally body
            normal = self.stmts(stmt.finalbody, normal) if normal else []
        return normal


def build_cfg(func: ast.AST) -> CFG:
    """CFG of one ``FunctionDef``/``AsyncFunctionDef``."""
    cfg = CFG(func)
    builder = _Builder(cfg)
    body = getattr(func, "body", [])
    frontier = builder.stmts(body, [cfg.entry])
    for block in frontier:
        cfg._edge(block, cfg.exit)
    # implicit `return None` at the end of reachable dead ends (e.g. an
    # `if` with both arms returning leaves no frontier; nothing to do)
    return cfg
