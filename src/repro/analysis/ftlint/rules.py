"""The six domain rules (FT001–FT006).

Each rule encodes one invariant the paper (or the DES reproduction of it)
relies on; ``ANALYSIS.md`` maps every rule to its paper anchor.  Scope is
path-based: worker/solver code for the communication rules, sim paths for
determinism, the whole tree for hygiene rules — tests are only subject to
the rules whose scope explicitly includes them.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.ftlint.core import FileContext, Finding, Rule, register

# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _attr_name(func: ast.AST) -> Optional[str]:
    """``x.y.z(...)`` -> ``"z"``; bare ``f(...)`` -> ``"f"``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_chain(func: ast.AST) -> str:
    """``self.ctx.wait`` -> ``"self.ctx"`` (best-effort dotted receiver)."""
    if not isinstance(func, ast.Attribute):
        return ""
    parts: List[str] = []
    cur: ast.AST = func.value
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return ".".join(reversed(parts))


def _path_in(display_path: str, prefixes: Sequence[str]) -> bool:
    return any(prefix in display_path for prefix in prefixes)


def _walk_within(node: ast.AST) -> Iterator[ast.AST]:
    yield from ast.walk(node)


_HEALTH_CHECKS = {"assert_healthy", "check_failure"}


def _contains_health_check(node: ast.AST) -> bool:
    """Does any ``*.assert_healthy()`` / ``*.check_failure()`` call occur
    anywhere inside ``node``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _attr_name(sub.func) in _HEALTH_CHECKS:
            return True
    return False


def _health_check_before(func_node: ast.AST, lineno: int) -> bool:
    """A health check strictly above ``lineno`` inside ``func_node``?"""
    for sub in ast.walk(func_node):
        if (isinstance(sub, ast.Call)
                and _attr_name(sub.func) in _HEALTH_CHECKS
                and getattr(sub, "lineno", lineno) < lineno):
            return True
    return False


def _is_infinite_timeout(node: ast.AST) -> bool:
    """Conservatively: GASPI_BLOCK / math.inf / float('inf') / None."""
    if isinstance(node, ast.Constant):
        return node.value is None or node.value == float("inf")
    name = _attr_name(node)
    if name in ("GASPI_BLOCK", "inf"):
        return True
    if isinstance(node, ast.Call) and _attr_name(node.func) == "float":
        arg = node.args[0] if node.args else None
        return (isinstance(arg, ast.Constant) and
                str(arg.value).lower() in ("inf", "infinity"))
    return False


# ----------------------------------------------------------------------
# FT001 — the paper's pre-communication health check
# ----------------------------------------------------------------------

#: blocking generator entry points, keyed by the positional index of
#: their ``timeout`` parameter (None = has no timeout parameter)
_BLOCKING_TIMEOUT_POS = {
    "wait": 1,
    "barrier": 1,
    "allreduce": 3,
    "notify_waitsome": 3,
    "passive_receive": 0,
    "group_commit": 1,
    "recv": 0,
    "get": 0,
}

#: yielded request objects that park the process, timeout positional index
_BLOCKING_REQUESTS = {
    "WaitEvent": 1,
    "ChannelGet": 1,
}


#: collectives a :class:`~repro.spmvm.team.Team` guards itself
_TEAM_GUARDED = {"barrier", "allreduce"}


def _self_guarded(call: ast.Call, name: str) -> bool:
    """Does the call read the health flag by itself?  A ``recheck=`` wait
    is re-read by the kernel at every timeout; a team's ``barrier`` or
    ``allreduce`` reads its guard before the wait and rechecks it."""
    if any(kw.arg == "recheck" for kw in call.keywords):
        return True
    return (name in _TEAM_GUARDED
            and _receiver_chain(call.func).rpartition(".")[2] == "team")


def _explicit_timeout(call: ast.Call, pos: Optional[int]) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == "timeout":
            return kw.value
    if pos is not None and len(call.args) > pos:
        return call.args[pos]
    return None


@register
class FT001PreCommCheck(Rule):
    """Blocking GASPI calls in worker/solver code must honour the
    local health flag — the paper's zero-overhead pre-communication
    check — or carry a finite timeout outside unbounded retry loops."""

    id = "FT001"
    title = "blocking call without health-flag check"
    rationale = (
        "paper §IV: each blocking communication call checks the local "
        "failure-acknowledgment flag; an unguarded blocking call (or an "
        "unguarded while-retry around a timed one) can hang past a failure"
    )

    _SCOPE = ("src/repro/ft/", "src/repro/spmvm/", "src/repro/solvers/",
              "src/repro/workloads/", "src/repro/checkpoint/",
              "src/repro/experiments/")
    #: the FD process is the health authority being consulted — it cannot
    #: guard on itself
    _EXEMPT = ("ft/detector.py",)

    def applies_to(self, display_path: str) -> bool:
        return (_path_in(display_path, self._SCOPE)
                and not _path_in(display_path, self._EXEMPT))

    # ------------------------------------------------------------------
    def _blocking_call(self, node: ast.AST) -> Optional[Tuple[ast.Call, str, Optional[int]]]:
        """Recognise a blocking construct; returns (call, name, timeout_pos)."""
        if isinstance(node, ast.YieldFrom) and isinstance(node.value, ast.Call):
            call = node.value
            name = _attr_name(call.func)
            if name in _BLOCKING_TIMEOUT_POS and isinstance(call.func, ast.Attribute):
                return call, name, _BLOCKING_TIMEOUT_POS[name]
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            call = node.value
            name = _attr_name(call.func)
            if name in _BLOCKING_REQUESTS:
                return call, name, _BLOCKING_REQUESTS[name]
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            found = self._blocking_call(node)
            if found is None:
                continue
            call, name, timeout_pos = found
            func = ctx.enclosing_function(node)
            if func is None or _self_guarded(call, name):
                continue
            # innermost enclosing loop within the function
            loop: Optional[ast.AST] = None
            for anc in ctx.ancestors(node):
                if isinstance(anc, (ast.While, ast.For)):
                    loop = anc
                    break
                if anc is func:
                    break

            timeout = _explicit_timeout(call, timeout_pos)
            timed = timeout is not None and not _is_infinite_timeout(timeout)

            if loop is not None and _contains_health_check(loop):
                continue
            if isinstance(loop, ast.While):
                # unbounded retry: a timeout alone only bounds one attempt,
                # the loop spins past a failure unless the flag is read
                yield ctx.make_finding(self.id, call, self._msg(name, loop))
                continue
            if timed:
                continue
            if loop is None and _health_check_before(func, call.lineno):
                continue
            yield ctx.make_finding(self.id, call, self._msg(name, loop))

    def _msg(self, name: str, loop: Optional[ast.AST]) -> str:
        where = "inside a retry loop " if isinstance(loop, ast.While) else ""
        return (
            f"blocking '{name}' {where}without a health-flag check "
            f"(team.assert_healthy()/block.check_failure()/recheck=) "
            f"{'in the loop body' if loop is not None else 'or a finite timeout'}"
        )


# ----------------------------------------------------------------------
# FT002 — determinism of the DES
# ----------------------------------------------------------------------

_WALLCLOCK = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "perf_counter_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

#: np.random entry points that construct *seeded* generators when given
#: an argument (flagged only when called with no arguments)
_SEEDED_CTORS = {"default_rng", "SeedSequence", "Generator", "PCG64",
                 "Philox", "SFC64", "MT19937", "BitGenerator"}


@register
class FT002Determinism(Rule):
    """Sim paths must draw randomness from ``sim.rng`` streams and time
    from the kernel clock — never the wall clock or global RNG state."""

    id = "FT002"
    title = "nondeterminism in a sim path"
    rationale = (
        "the DES is only reproducible because every sim-path draw comes "
        "from a seeded stream and every timestamp from the kernel clock; "
        "one wall-clock read or global-RNG call breaks replay and the "
        "byte-identical serial-vs-parallel sweep guarantee"
    )

    _SCOPE = ("src/repro/sim/", "src/repro/gaspi/", "src/repro/ft/",
              "src/repro/spmvm/")

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, self._SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        random_module_aliases = self._module_aliases(ctx, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = _attr_name(func)
            receiver = _receiver_chain(func)
            # wall clock: time.time(), datetime.datetime.now(), ...
            for mod, fn in _WALLCLOCK:
                if name == fn and (receiver == mod
                                   or receiver.endswith("." + mod)):
                    yield ctx.make_finding(
                        self.id, node,
                        f"wall-clock read '{receiver}.{name}()' in a sim "
                        f"path; use the kernel clock (ctx.now / sim.now)",
                    )
                    break
            else:
                # global/legacy RNG state: random.*, np.random.<legacy>
                if receiver in random_module_aliases:
                    yield ctx.make_finding(
                        self.id, node,
                        f"stdlib 'random.{name}()' draws from global state; "
                        f"use a named sim.rng stream",
                    )
                elif receiver.endswith("random") and receiver != "random":
                    # np.random / numpy.random
                    if name not in _SEEDED_CTORS:
                        yield ctx.make_finding(
                            self.id, node,
                            f"'{receiver}.{name}()' uses numpy's global RNG "
                            f"state; use a named sim.rng stream",
                        )
                    elif not node.args and not node.keywords:
                        yield ctx.make_finding(
                            self.id, node,
                            f"'{receiver}.{name}()' with no seed draws OS "
                            f"entropy; pass an explicit seed",
                        )

    @staticmethod
    def _module_aliases(ctx: FileContext, module: str) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == module:
                        aliases.add(alias.asname or alias.name)
        return aliases


# ----------------------------------------------------------------------
# FT003 — zero-cost tracing discipline
# ----------------------------------------------------------------------
@register
class FT003TracerGate(Rule):
    """Every ``tracer.emit(...)`` must sit under an ``if tracer.enabled:``
    guard (the zero-cost pattern) so the disabled path allocates nothing."""

    id = "FT003"
    title = "ungated tracer.emit"
    rationale = (
        "the failure-free path must stay free: an ungated emit builds its "
        "kwargs dict on every call even when tracing is off (NULL_TRACER "
        "discards them after the allocation already happened)"
    )

    #: the tracer implementation and its exporters legitimately call emit
    _EXEMPT = ("src/repro/obs/",)

    def applies_to(self, display_path: str) -> bool:
        return (_path_in(display_path, ("src/",))
                and not _path_in(display_path, self._EXEMPT))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and _attr_name(node.func) == "emit"
                    and isinstance(node.func, ast.Attribute)):
                continue
            receiver = _receiver_chain(node.func)
            if "tracer" not in receiver.lower():
                continue
            if not self._gated(ctx, node):
                yield ctx.make_finding(
                    self.id, node,
                    f"'{receiver}.emit(...)' not under an "
                    f"'if {receiver}.enabled:' guard (zero-cost pattern)",
                )

    @staticmethod
    def _gated(ctx: FileContext, node: ast.Call) -> bool:
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.If, ast.IfExp)):
                test = ast.dump(anc.test)
                if "enabled" in test:
                    return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return False


# ----------------------------------------------------------------------
# FT004 — queue-slot discipline
# ----------------------------------------------------------------------

_POSTING = {"write", "write_notify", "write_list", "write_list_notify",
            "read", "read_list", "notify", "post_rdma", "post_rdma_list"}
#: receivers that denote the GASPI layer (filters out file.write etc.)
_POSTING_RECEIVERS = re.compile(
    r"(^|\.)(ctx|context|transport)$"
)


@register
class FT004QueueDiscipline(Rule):
    """Posting calls return ``QUEUE_FULL`` when the queue has no free
    slot: the code must look at that return code, and must not yield to
    the kernel between posting and checking (the queue can drain and
    refill underneath, making the stored code stale)."""

    id = "FT004"
    title = "queue-slot status dropped or held across a yield"
    rationale = (
        "a silently dropped QUEUE_FULL loses one-sided writes (e.g. a "
        "failure-notice broadcast entry) with no error anywhere; a yield "
        "between post and check acts on a stale slot count"
    )

    _SCOPE = ("src/repro/gaspi/", "src/repro/ft/", "src/repro/spmvm/",
              "src/repro/checkpoint/", "src/repro/solvers/",
              "src/repro/cluster/")

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, self._SCOPE)

    # ------------------------------------------------------------------
    def _posting_call(self, node: ast.AST) -> Optional[ast.Call]:
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _POSTING
                and _POSTING_RECEIVERS.search(_receiver_chain(node.func))):
            return node
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_blocks(ctx, node)

    def _check_blocks(self, ctx: FileContext, func: ast.AST) -> Iterator[Finding]:
        for block in self._statement_blocks(func):
            for idx, stmt in enumerate(block):
                # (a) discarded return code
                if isinstance(stmt, ast.Expr):
                    call = self._posting_call(stmt.value)
                    if call is not None:
                        yield ctx.make_finding(
                            self.id, call,
                            f"return code of '{call.func.attr}' discarded — "
                            f"QUEUE_FULL would silently drop the transfer",
                        )
                        continue
                # (b) checked, but a yield intervenes before the check
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    call = self._posting_call(stmt.value)
                    target = stmt.targets[0]
                    if call is None or not isinstance(target, ast.Name):
                        continue
                    yield from self._check_yield_gap(
                        ctx, call, target.id, block[idx + 1:])

    def _check_yield_gap(self, ctx: FileContext, call: ast.Call,
                         name: str, rest: List[ast.stmt]) -> Iterator[Finding]:
        for stmt in rest:
            uses = any(isinstance(sub, ast.Name) and sub.id == name
                       for sub in ast.walk(stmt))
            yields = any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                         for sub in ast.walk(stmt))
            if uses and not yields:
                return  # checked before any yield: fine
            if yields and not uses:
                yield ctx.make_finding(
                    self.id, call,
                    f"'{name}' (result of '{call.func.attr}') is not "
                    f"examined before yielding — the slot status is stale "
                    f"after the kernel runs",
                )
                return
            if uses:
                return  # same statement both uses and yields: treat as checked
        # never used at all in the rest of the block
        yield ctx.make_finding(
            self.id, call,
            f"'{name}' (result of '{call.func.attr}') is never checked in "
            f"this block — QUEUE_FULL would go unnoticed",
        )

    @staticmethod
    def _statement_blocks(func: ast.AST) -> Iterator[List[ast.stmt]]:
        """Every ordered statement list in the function (bodies, orelse...)."""
        for node in ast.walk(func):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if isinstance(block, list) and block \
                        and all(isinstance(s, ast.stmt) for s in block):
                    yield block


# ----------------------------------------------------------------------
# FT005 — exception hygiene in recovery paths
# ----------------------------------------------------------------------
@register
class FT005BroadExcept(Rule):
    """Recovery paths unwind on ``FailureAcknowledged`` / ``GaspiError``
    / ``SimError``; a broad handler that does not re-raise swallows the
    unwind and deadlocks the recovery protocol."""

    id = "FT005"
    title = "broad except swallows FT control flow"
    rationale = (
        "FailureAcknowledged is the mechanism that unwinds a worker into "
        "recovery; 'except Exception' on its propagation path quietly "
        "cancels the paper's Fig. 3 transition"
    )

    _SCOPE = ("src/repro/",)

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, self._SCOPE)

    _BROAD = {"Exception", "BaseException"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or (
                _attr_name(node.type) in self._BROAD
            )
            if isinstance(node.type, ast.Tuple):
                broad = any(_attr_name(elt) in self._BROAD
                            for elt in node.type.elts)
            if not broad:
                continue
            if self._reraises(node):
                continue
            what = ("bare 'except:'" if node.type is None
                    else f"'except {_attr_name(node.type)}'")
            yield ctx.make_finding(
                self.id, node,
                f"{what} without re-raise can swallow FailureAcknowledged/"
                f"GaspiError/SimError and stall recovery; catch specific "
                f"exceptions or re-raise",
            )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
        return False


# ----------------------------------------------------------------------
# FT006 — public API annotations
# ----------------------------------------------------------------------
@register
class FT006PublicAnnotations(Rule):
    """Public functions in ``src/repro`` must be fully annotated — the
    static backstop behind the mypy strict packages."""

    id = "FT006"
    title = "public function missing type annotations"
    rationale = (
        "mypy's disallow_untyped_defs only runs on the strict packages; "
        "this keeps the rest of the public surface from regressing"
    )

    _SCOPE = ("src/repro/",)

    def applies_to(self, display_path: str) -> bool:
        return _path_in(display_path, self._SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_public(ctx, node):
                continue
            missing = self._missing(node)
            if missing:
                yield ctx.make_finding(
                    self.id, node,
                    f"public function '{node.name}' missing annotations: "
                    f"{', '.join(missing)}",
                )

    @staticmethod
    def _is_public(ctx: FileContext, node: ast.AST) -> bool:
        name = node.name
        if name.startswith("_") and name != "__init__":
            return False
        # nested functions (closures) are implementation detail
        anc = ctx.parent(node)
        while anc is not None and not isinstance(
                anc, (ast.Module, ast.ClassDef,
                      ast.FunctionDef, ast.AsyncFunctionDef)):
            anc = ctx.parent(anc)
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        if isinstance(anc, ast.ClassDef) and anc.name.startswith("_"):
            return False
        return True

    @staticmethod
    def _missing(node: ast.AST) -> List[str]:
        args = node.args
        missing: List[str] = []
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                missing.append(arg.arg)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None and node.name != "__init__":
            missing.append("return")
        return missing
