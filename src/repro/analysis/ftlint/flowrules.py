"""The flow-sensitive protocol rules (FT007–FT010).

Where FT001–FT006 look at one statement at a time, these rules run the
:mod:`cfg`/:mod:`dataflow` engine over every function and reason about
*paths*: an obligation created at one call site must be discharged on
every path that can reach the function's exit (FT007, FT009), must not
be re-entered while live (double post), and a resource retired on one
path must not be touched further down it (FT008).  FT010 is a pure
graph-reachability property: a posting loop must keep a drain reachable.

Matching is textual and intraprocedural by design — the rules never
guess across call boundaries.  Two pressure valves keep that honest on
real code:

* **helper discharge**: any call whose name contains ``wait``/``flush``/
  ``drain``/``purge``/``sync`` (e.g. ``self._flush()``) discharges
  notification/queue obligations, because this tree's consumers factor
  their queue flushing into such helpers;
* **escape**: an obligation whose handle is returned, yielded, stored,
  or passed to a non-GASPI callee transfers to the caller and is
  dropped rather than reported.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.ftlint.cfg import CFG, build_cfg
from repro.analysis.ftlint.core import FileContext, Finding, Rule, register
from repro.analysis.ftlint.dataflow import Fact, State, facts_at_exit, run_forward
from repro.analysis.ftlint.rules import _attr_name, _path_in, _receiver_chain

# ----------------------------------------------------------------------
# call vocabulary
# ----------------------------------------------------------------------

#: receivers that denote a GASPI context handle
_CTX_RECEIVER = re.compile(r"(^|\.)(ctx|context)$")

#: ops that post a notification toward a peer (FT007 obligations)
_NOTIFYING = {"notify", "write_notify", "write_list_notify"}

#: ops that occupy a queue slot (FT010)
_QUEUE_POSTING = {"write", "read", "notify", "write_notify", "write_list",
                  "write_list_notify", "write_round", "read_list"}

#: exact method names that discharge notification/queue obligations
_CLEARING_ATTRS = {"wait", "drain_event", "queue_purge", "purge",
                   "notify_waitsome", "notify_reset", "notify_reset_many"}

#: helper-name pattern that also discharges (factored-out flush loops)
_CLEARING_PATTERN = re.compile(r"flush|drain|wait|purge|sync")

#: segment-id argument positions per context op (positional index), plus
#: the keyword names that carry segment ids anywhere
_SEG_ARG_POS: Dict[str, Tuple[int, ...]] = {
    "segment": (0,), "segment_view": (0,), "segment_delete": (0,),
    "write": (0, 4), "read": (0, 4), "notify": (1,),
    "write_notify": (0, 4), "write_round": (0, 4),
    "notify_waitsome": (0,), "notify_reset": (0,), "notify_reset_many": (0,),
    "atomic_fetch_add": (1,), "atomic_compare_swap": (1,),
}
_SEG_KWARGS = {"segment_id", "remote_segment", "notify_segment"}

#: group-membership mutators: they touch the handle without taking it
_GROUP_MUTATORS = {"group_add", "group_add_many", "group_fill", "add",
                   "add_many", "adopt_members"}
_GROUP_COMMITS = {"group_commit"}
_GROUP_DELETES = {"group_delete"}


def _unparse(node: Optional[ast.AST]) -> str:
    if node is None:
        return "?"
    try:
        return ast.unparse(node)
    except (ValueError, AttributeError):  # pragma: no cover - synthetic nodes
        return "?"


#: nested scopes are separate CFGs — never read through their bodies
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _scoped_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class
    scopes (a nested ``def`` is one opaque statement to the enclosing
    function's CFG — its calls belong to *its own* analysis)."""
    if isinstance(node, _SCOPE_NODES):
        return
    todo: List[ast.AST] = [node]
    while todo:
        cur = todo.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if not isinstance(child, _SCOPE_NODES):
                todo.append(child)


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    for sub in _scoped_walk(node):
        if isinstance(sub, ast.Call):
            yield sub


def _is_ctx_call(call: ast.Call) -> Optional[str]:
    """The op name if this is a call on a GASPI context handle."""
    name = _attr_name(call.func)
    if name is None or not isinstance(call.func, ast.Attribute):
        return None
    if _CTX_RECEIVER.search(_receiver_chain(call.func)):
        return name
    return None


def _is_clearing(node: ast.AST) -> bool:
    """Does this element discharge notification/queue obligations?"""
    if isinstance(node, _SCOPE_NODES):
        return False
    for call in _calls_in(node):
        name = _attr_name(call.func)
        if name is None:
            continue
        if name in _CLEARING_ATTRS:
            return True
        if _CLEARING_PATTERN.search(name):
            return True
    return False


def _arg(call: ast.Call, pos: int, kw: Optional[str] = None) -> Optional[ast.AST]:
    for keyword in call.keywords:
        if kw is not None and keyword.arg == kw:
            return keyword.value
    if pos < len(call.args):
        return call.args[pos]
    return None


def _seg_keys(call: ast.Call, op: str, receiver: str) -> List[str]:
    """Keys of every segment-id argument of a context call."""
    keys: List[str] = []
    for pos in _SEG_ARG_POS.get(op, ()):
        if pos < len(call.args):
            keys.append(f"{receiver}:{_unparse(call.args[pos])}")
    for keyword in call.keywords:
        if keyword.arg in _SEG_KWARGS:
            keys.append(f"{receiver}:{_unparse(keyword.value)}")
    return keys


def _functions(ctx: FileContext) -> Iterator[ast.AST]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


#: packages whose protocol code the flow rules police; gaspi itself (the
#: runtime being modelled), the sim kernel and the transport are exempt —
#: they *implement* the mechanisms these rules check the users of
_FLOW_SCOPE = ("src/repro/ft/", "src/repro/spmvm/", "src/repro/checkpoint/",
               "src/repro/workloads/", "src/repro/solvers/",
               "src/repro/experiments/")


class _FlowRule(Rule):
    """Shared scaffolding: per-function CFG + dedicated check."""

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, _FLOW_SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx):
            cfg = build_cfg(func)
            seen: Set[Tuple[str, int, int]] = set()
            for finding in self.check_function(ctx, func, cfg):
                ident = (finding.rule, finding.line, finding.col)
                if ident not in seen:  # finally-duplication dedupe
                    seen.add(ident)
                    yield finding

    def check_function(self, ctx: FileContext, func: ast.AST,
                       cfg: CFG) -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# FT007 — notification leak / double post
# ----------------------------------------------------------------------
@register
class FT007NotificationLeak(_FlowRule):
    """Every posted notification must meet a wait/drain on every path to
    function exit, and a live (unconsumed) id must not be posted again
    with the same value from a second call site."""

    id = "FT007"
    title = "notification can leak past function exit / double post"
    rationale = (
        "paper §III: the spMVM learns its halos landed only through "
        "notifications — a posted id that no path waits on is a lost "
        "completion (the peer spins), and re-posting a live id with the "
        "same value silently overwrites an unconsumed flag"
    )

    def _notify_args(self, call: ast.Call, op: str) -> Tuple[str, str, str]:
        """(segment, id, value) argument texts of a notifying op."""
        if op == "notify":
            seg = _arg(call, 1, "remote_segment")
            nid = _arg(call, 2, "notification_id")
            val = _arg(call, 3, "value")
        elif op == "write_notify":
            seg = _arg(call, 4, "remote_segment")
            nid = _arg(call, 6, "notification_id")
            val = _arg(call, 7, "value")
        else:  # write_list_notify
            seg = _arg(call, 2, "notify_segment")
            nid = _arg(call, 3, "notifications")
            val = None
        value = _unparse(val) if val is not None else "1"
        return _unparse(seg), _unparse(nid), value

    def _returned_names(self, func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for stmt in getattr(func, "body", []):
            for sub in _scoped_walk(stmt):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    for name in ast.walk(sub.value):
                        if isinstance(name, ast.Name):
                            names.add(name.id)
        return names

    def check_function(self, ctx: FileContext, func: ast.AST,
                       cfg: CFG) -> Iterator[Finding]:
        returned = self._returned_names(func)
        findings: List[Tuple[str, ast.AST, str]] = []

        def transfer(idx: int, state: State) -> State:
            block = cfg.blocks[idx]
            stmt = block.stmt
            if stmt is None:
                return state
            if _is_clearing(stmt):
                state = frozenset(f for f in state if f.kind != "notify")
            for call in _calls_in(stmt):
                op = _is_ctx_call(call)
                if op not in _NOTIFYING:
                    continue
                receiver = _receiver_chain(call.func)
                seg, nid, value = self._notify_args(call, op)
                key = f"{receiver}|{seg}|{nid}"
                # the fire-and-forget escape: posting's return code handed
                # to the caller transfers the obligation with it
                parent = ctx.enclosing_statement(call)
                if isinstance(parent, ast.Return):
                    continue
                if isinstance(parent, ast.Assign):
                    target = parent.targets[0]
                    if isinstance(target, ast.Name) and target.id in returned:
                        continue
                for fact in state:
                    if (fact.kind == "notify" and fact.key == key
                            and fact.data and fact.data[0] == value
                            and cfg.blocks[fact.origin].stmt is not stmt):
                        findings.append((
                            "double",
                            call,
                            f"notification id {nid} on segment {seg} is "
                            f"re-posted with value {value} while a post "
                            f"from line "
                            f"{getattr(cfg.blocks[fact.origin].stmt, 'lineno', '?')} "
                            f"is still live (no wait/reset in between)",
                        ))
                state = state | {Fact("notify", key, idx, (value, nid, seg))}
            return state

        in_states = run_forward(cfg, transfer)
        for fact in facts_at_exit(cfg, in_states):
            if fact.kind != "notify":
                continue
            stmt = cfg.blocks[fact.origin].stmt
            _value, nid, seg = fact.data
            findings.append((
                "leak",
                stmt,
                f"notification id {nid} posted on segment {seg} can reach "
                f"the exit of '{getattr(func, 'name', '?')}' with no "
                f"wait/drain on some path",
            ))
        for _kind, node, message in findings:
            yield ctx.make_finding(self.id, node, message)


# ----------------------------------------------------------------------
# FT008 — segment use after free / missing rebind
# ----------------------------------------------------------------------
@register
class FT008SegmentEpoch(_FlowRule):
    """A deleted segment id must be re-created (rebind, new recovery
    epoch) before any path touches it again."""

    id = "FT008"
    title = "segment used after delete without rebind"
    rationale = (
        "recovery retires data-plane segments (delete) and rebinds them "
        "for the new epoch (create); touching the id in the gap reads "
        "memory the epoch no longer owns — the DES raises at delivery "
        "time, real GPI-2 corrupts silently"
    )

    def check_function(self, ctx: FileContext, func: ast.AST,
                       cfg: CFG) -> Iterator[Finding]:
        findings: List[Tuple[ast.AST, str]] = []
        reported: Set[Tuple[int, str]] = set()

        def transfer(idx: int, state: State) -> State:
            block = cfg.blocks[idx]
            stmt = block.stmt
            if stmt is None:
                return state
            for call in _calls_in(stmt):
                op = _is_ctx_call(call)
                if op is None:
                    continue
                receiver = _receiver_chain(call.func)
                keys = _seg_keys(call, op, receiver)
                if op == "segment_create":
                    created = (f"{receiver}:{_unparse(_arg(call, 0, 'segment_id'))}",)
                    state = frozenset(
                        f for f in state
                        if not (f.kind == "segdel" and f.key in created)
                    )
                    continue
                if op == "segment_delete":
                    for key in keys:
                        state = state | {Fact("segdel", key, idx)}
                    continue
                for key in keys:
                    for fact in state:
                        if fact.kind == "segdel" and fact.key == key:
                            ident = (idx, key)
                            if ident not in reported:
                                reported.add(ident)
                                origin_stmt = cfg.blocks[fact.origin].stmt
                                findings.append((
                                    call,
                                    f"segment {key.split(':', 1)[1]} used "
                                    f"by '{op}' after segment_delete (line "
                                    f"{getattr(origin_stmt, 'lineno', '?')}) "
                                    f"with no segment_create rebinding it "
                                    f"on this path",
                                ))
            return state

        run_forward(cfg, transfer)
        for node, message in findings:
            yield ctx.make_finding(self.id, node, message)


# ----------------------------------------------------------------------
# FT009 — unbalanced group collectives
# ----------------------------------------------------------------------
@register
class FT009GroupBalance(_FlowRule):
    """Every ``group_create`` must reach a ``group_commit`` (or an
    explicit delete/escape) on every path — a branch that abandons the
    handle leaves the other ranks of the collective arriving forever."""

    id = "FT009"
    title = "group created but not committed on some path"
    rationale = (
        "group_commit is collective: the paper's OHF2 rebuild has every "
        "survivor and rescue commit the same group; a path that leaves "
        "the handle uncommitted (or rebinds it) desynchronises the "
        "recovery epoch's membership"
    )

    def check_function(self, ctx: FileContext, func: ast.AST,
                       cfg: CFG) -> Iterator[Finding]:
        findings: List[Tuple[ast.AST, str]] = []
        reported: Set[Tuple[str, int]] = set()

        def group_var_of(call_parent: ast.AST) -> Optional[str]:
            if isinstance(call_parent, ast.Assign) \
                    and len(call_parent.targets) == 1 \
                    and isinstance(call_parent.targets[0], ast.Name):
                return call_parent.targets[0].id
            return None

        def transfer(idx: int, state: State) -> State:
            block = cfg.blocks[idx]
            stmt = block.stmt
            if stmt is None:
                return state
            # 1. discharge: commit / delete / escape of the handle
            for call in _calls_in(stmt):
                name = _attr_name(call.func)
                if name in _GROUP_COMMITS | _GROUP_DELETES:
                    for arg in list(call.args) + [k.value for k in call.keywords]:
                        if isinstance(arg, ast.Name):
                            state = frozenset(
                                f for f in state
                                if not (f.kind == "group" and f.key == arg.id)
                            )
                elif name not in _GROUP_MUTATORS and _is_ctx_call(call) is None:
                    # handle passed to arbitrary code: ownership escapes
                    for arg in list(call.args) + [k.value for k in call.keywords]:
                        if isinstance(arg, ast.Name):
                            state = frozenset(
                                f for f in state
                                if not (f.kind == "group" and f.key == arg.id)
                            )
            # escape: handle returned/yielded to the caller, or stored
            # into an attribute/subscript slot that outlives the frame
            escape_roots: List[ast.AST] = []
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                escape_roots.append(stmt.value)
            elif isinstance(stmt, ast.Expr) \
                    and isinstance(stmt.value, (ast.Yield, ast.YieldFrom)) \
                    and stmt.value.value is not None:
                escape_roots.append(stmt.value.value)
            elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in stmt.targets):
                escape_roots.append(stmt.value)
            for root in escape_roots:
                for name in ast.walk(root):
                    if isinstance(name, ast.Name):
                        state = frozenset(
                            f for f in state
                            if not (f.kind == "group" and f.key == name.id)
                        )
            # 2. creation / rebind
            for call in _calls_in(stmt):
                if _is_ctx_call(call) != "group_create":
                    continue
                var = group_var_of(ctx.enclosing_statement(call))
                if var is None:
                    continue
                for fact in state:
                    if fact.kind == "group" and fact.key == var:
                        ident = (var, idx)
                        if ident not in reported:
                            reported.add(ident)
                            origin = cfg.blocks[fact.origin].stmt
                            findings.append((
                                call,
                                f"'{var}' is rebound to a new group while "
                                f"the group created at line "
                                f"{getattr(origin, 'lineno', '?')} is still "
                                f"uncommitted — commit or group_delete it "
                                f"first",
                            ))
                state = frozenset(
                    f for f in state
                    if not (f.kind == "group" and f.key == var)
                ) | {Fact("group", var, idx)}
            return state

        in_states = run_forward(cfg, transfer)
        for fact in facts_at_exit(cfg, in_states):
            if fact.kind != "group":
                continue
            stmt = cfg.blocks[fact.origin].stmt
            ident = (fact.key, -1)
            if ident in reported:
                continue
            reported.add(ident)
            findings.append((
                stmt,
                f"group '{fact.key}' created here can reach the exit of "
                f"'{getattr(func, 'name', '?')}' without group_commit on "
                f"some path (collective peers would block forever)",
            ))
        for node, message in findings:
            yield ctx.make_finding(self.id, node, message)


# ----------------------------------------------------------------------
# FT010 — queue-depth leak
# ----------------------------------------------------------------------
@register
class FT010QueueDepthLeak(_FlowRule):
    """A posting call on a cycle must keep a wait/drain reachable —
    otherwise the loop fills the queue's finite depth unboundedly."""

    id = "FT010"
    title = "posting loop with no reachable wait/drain"
    rationale = (
        "queues have finite depth (GPI-2 default 4096): a loop that "
        "posts without any reachable flush turns into QUEUE_FULL spin "
        "or silent drop once the depth is exhausted"
    )

    def check_function(self, ctx: FileContext, func: ast.AST,
                       cfg: CFG) -> Iterator[Finding]:
        clearing_blocks = {
            block.idx for block in cfg.blocks
            if block.stmt is not None and _is_clearing(block.stmt)
        }
        for block in cfg.blocks:
            if block.stmt is None:
                continue
            for call in _calls_in(block.stmt):
                op = _is_ctx_call(call)
                if op not in _QUEUE_POSTING:
                    continue
                if not cfg.in_cycle(block.idx):
                    continue
                reachable = cfg.reachable_from(block.idx)
                if reachable & clearing_blocks:
                    continue
                yield ctx.make_finding(
                    self.id, call,
                    f"'{op}' posts inside a loop with no wait/drain/"
                    f"purge reachable from it — the queue's finite depth "
                    f"fills after at most queue_depth iterations",
                )
