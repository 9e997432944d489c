"""The determinism rule catalogue (REP001–REP006 plus the dataflow suite).

Each rule is a function from a :class:`LintContext` (one parsed file) to an
iterator of :class:`repro.check.linter.Diagnostic`.  Rules are registered
in :data:`RULES` via the :func:`rule` decorator; the linter runs every
registered rule over every file and applies pragma suppression afterwards,
so rules never need to know about pragmas.

These are *DES-specific* checks, not style checks: each one encodes an
invariant the simulation's reproducibility (or its recorded performance
trajectory) depends on.

REP001–REP006 are syntactic, per-function checks; REP101 onward run on
the CFG + forward-dataflow framework (:mod:`repro.check.cfg`,
:mod:`repro.check.dataflow`) with one-level interprocedural call
summaries (:mod:`repro.check.summaries`).

========  ============================================================
REP001    no wall-clock reads (``time.time`` / ``time.monotonic`` /
          ``perf_counter`` / ``datetime.now`` …) — simulated code must
          take time from ``Simulator.now``
REP002    no global ``random`` module, no global ``numpy.random``
          state, no unseeded ``default_rng()`` — randomness must come
          from ``RngStreams.stream(name)``
REP003    no iteration over ``set``/``frozenset`` values (taint from
          ``set(``/``frozenset(`` constructors, set literals, set
          comprehensions, and calls to functions whose summary says
          they return set-derived collections) where the order can
          feed ``schedule()``, statistics, or returned collections —
          ``sorted(...)`` sanitises
REP004    no float ``==``/``!=`` against ``sim.now`` or event-time
          values — exact float comparison of computed times is fragile
REP005    no ``id()``-based ordering or hashing of simulation objects —
          CPython addresses vary across runs
REP006    no ``schedule()`` call or ``yield`` with a provably negative
          literal delay
REP101    no ``+``/``-`` (or suffix-contradicting assignment) between
          different units (cycles / ns / us / instructions / …)
REP102    no ordered comparison between different units
REP103    no untranslated unit flowing into a nanosecond delay sink
          (``schedule`` / ``stall`` / ``kernel_phase`` / ``timer`` /
          a process's bare ``yield``) or into the wrong converter
          argument
REP111    every acquired free-list frame reaches a release/install on
          all CFG paths (exception and fault-degrade edges included)
REP112    every acquired PMSHR entry reaches ``release``/ownership
          transfer on all CFG paths
REP121    no per-call container/closure allocation inside a
          ``# repro: hot-path`` function
REP122    no per-call string formatting inside a hot-path function
REP123    no repeated deep attribute chains inside a hot-path loop —
          hoist a bound local, as the engine's dispatch loop does
========  ============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.check.linter import Diagnostic

# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One registered determinism rule."""

    id: str
    name: str
    summary: str
    check: Callable[["LintContext"], Iterator[Diagnostic]]


#: Rule id → :class:`Rule`, in registration (catalogue) order.
RULES: Dict[str, Rule] = {}

#: The pseudo-rule id reported for pragmas that suppressed nothing.
UNUSED_PRAGMA = "REP000"


def rule(rule_id: str, name: str, summary: str):
    """Register a rule-check function under ``rule_id``."""

    def decorate(fn: Callable[["LintContext"], Iterator[Diagnostic]]):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, name, summary, fn)
        return fn

    return decorate


# ----------------------------------------------------------------------
# per-file context
# ----------------------------------------------------------------------
@dataclass
class LintContext:
    """One parsed file plus the import environment the rules resolve with."""

    path: str
    tree: ast.AST
    #: Local alias → fully qualified module/name (``np`` → ``numpy``,
    #: ``monotonic`` → ``time.monotonic``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Whole-project one-level call summaries (never None after build()).
    project: Optional[object] = None
    #: Lines carrying a hot-path marker comment in this file.
    hot_lines: Set[int] = field(default_factory=set)

    @classmethod
    def build(
        cls,
        path: str,
        tree: ast.AST,
        project: Optional[object] = None,
        hot_lines: Optional[Set[int]] = None,
    ) -> "LintContext":
        ctx = cls(path=path, tree=tree)
        if project is None:
            from repro.check.summaries import build_project

            project = build_project([(path, tree)])
        ctx.project = project
        ctx.hot_lines = set(hot_lines or ())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    ctx.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    ctx.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return ctx

    # -- helpers --------------------------------------------------------
    def resolve_call_name(self, func: ast.expr) -> Optional[str]:
        """Fully qualified dotted name of a call target, or None.

        ``np.random.rand`` resolves to ``numpy.random.rand`` given
        ``import numpy as np``; a bare name resolves through from-imports
        (``monotonic`` → ``time.monotonic``).  Unresolvable bases (local
        variables, attributes of objects) return None — rules only fire
        on provably-imported modules.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def resolve_summary(self, call: ast.Call) -> Optional[object]:
        """One-level call summary for a call site, if resolvable."""
        if self.project is None:
            return None
        return self.project.resolve_call(call, self.path)


def _diag(ctx: LintContext, rule_id: str, node: ast.AST, message: str) -> Diagnostic:
    return Diagnostic(
        path=ctx.path,
        line=node.lineno,
        col=node.col_offset + 1,
        end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
        rule=rule_id,
        message=message,
    )


# ----------------------------------------------------------------------
# REP001 — wall-clock reads
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@rule(
    "REP001",
    "wall-clock",
    "wall-clock reads in simulated code; use Simulator.now",
)
def check_wall_clock(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call_name(node.func)
        if resolved in _WALL_CLOCK:
            yield _diag(
                ctx,
                "REP001",
                node,
                f"wall-clock call {resolved}() — simulated code must take "
                "time from Simulator.now (host timing belongs behind an "
                "allow pragma)",
            )


# ----------------------------------------------------------------------
# REP002 — unseeded randomness
# ----------------------------------------------------------------------
#: numpy.random names that *construct* seeded generators (the sanctioned
#: building blocks of :class:`repro.sim.rng.RngStreams`).
_NP_RANDOM_ALLOWED = {
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "numpy.random.SeedSequence",
}


@rule(
    "REP002",
    "global-rng",
    "global random module / unseeded numpy.random; use RngStreams.stream(name)",
)
def check_global_rng(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call_name(node.func)
        if resolved is None:
            continue
        if resolved == "random" or resolved.startswith("random."):
            yield _diag(
                ctx,
                "REP002",
                node,
                f"global random-module call {resolved}() — draw from "
                "RngStreams.stream(name) instead",
            )
        elif resolved.startswith("numpy.random.") and resolved not in _NP_RANDOM_ALLOWED:
            if resolved == "numpy.random.default_rng" and (node.args or node.keywords):
                continue  # explicitly seeded construction is fine
            yield _diag(
                ctx,
                "REP002",
                node,
                f"{resolved}() uses numpy's global/unseeded RNG state — "
                "draw from RngStreams.stream(name) instead",
            )


# ----------------------------------------------------------------------
# REP003 — iteration over unordered sets feeding order-sensitive sinks
# ----------------------------------------------------------------------
#: Method names whose call order is observable (scheduling, statistics,
#: queue/collection mutation).
_ORDER_SINKS = {
    "schedule",
    "add",
    "append",
    "appendleft",
    "extend",
    "insert",
    "fire",
    "put",
    "put_nowait",
    "push",
    "refill",
    "submit",
    "submit_read",
    "submit_write",
    "record",
    "note",
    "touch",
    "update",
}


def _attr_or_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _contains_order_sink(body: List[ast.stmt]) -> Optional[ast.AST]:
    """First order-sensitive operation in a loop body, or None."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _attr_or_name(node.func)
                if name in _ORDER_SINKS:
                    return node
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return node
    return None


class _SetTaint:
    """Taint tracking for unordered-set provenance.

    Function-local by default; given a :class:`LintContext`, calls whose
    one-level summary says the callee returns a set-derived collection
    (``returns_set``) taint their result too, so provenance no longer
    escapes silently across function boundaries.
    """

    def __init__(self, ctx: Optional["LintContext"] = None) -> None:
        self.tainted: Set[str] = set()
        self.ctx = ctx

    def expr_is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _attr_or_name(node.func)
            if isinstance(node.func, ast.Name) and name in {"set", "frozenset"}:
                return True
            # tainted.union(...) etc. stay tainted; sorted(...) sanitises.
            if isinstance(node.func, ast.Attribute) and name in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            }:
                return self.expr_is_tainted(node.func.value)
            if self.ctx is not None:
                summary = self.ctx.resolve_summary(node)
                if summary is not None and getattr(summary, "returns_set", False):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.expr_is_tainted(node.left) or self.expr_is_tainted(node.right)
        if isinstance(node, ast.IfExp):
            return self.expr_is_tainted(node.body) or self.expr_is_tainted(node.orelse)
        return False

    def assign(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if not isinstance(target, ast.Name):
            return
        if value is not None and self.expr_is_tainted(value):
            self.tainted.add(target.id)
        else:
            self.tainted.discard(target.id)


def _tainted_payload(taint: _SetTaint, node: ast.expr) -> bool:
    """Is ``node`` a tainted set or a direct reshaping of one
    (``list(s)`` / ``tuple(s)`` / a comprehension over ``s``)?"""
    if taint.expr_is_tainted(node):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"list", "tuple", "iter"} and node.args:
            return taint.expr_is_tainted(node.args[0])
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return any(taint.expr_is_tainted(gen.iter) for gen in node.generators)
    return False


def _check_function_sets(
    ctx: LintContext, fn: ast.AST, body: List[ast.stmt]
) -> Iterator[Diagnostic]:
    taint = _SetTaint(ctx)

    def visit(stmts: List[ast.stmt]) -> Iterator[Diagnostic]:
        for stmt in stmts:
            # -- taint propagation ------------------------------------
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    taint.assign(target, stmt.value)
            elif isinstance(stmt, ast.AnnAssign):
                taint.assign(stmt.target, stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                if taint.expr_is_tainted(stmt.value):
                    taint.assign(stmt.target, stmt.value)

            # -- sinks ------------------------------------------------
            if isinstance(stmt, (ast.For, ast.AsyncFor)) and taint.expr_is_tainted(
                stmt.iter
            ):
                sink = _contains_order_sink(stmt.body)
                if sink is not None:
                    yield _diag(
                        ctx,
                        "REP003",
                        stmt,
                        "iteration over an unordered set drives an "
                        "order-sensitive operation "
                        f"({_attr_or_name(getattr(sink, 'func', sink)) or 'yield'}) "
                        "— iterate sorted(...) instead",
                    )
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if _tainted_payload(taint, stmt.value):
                    yield _diag(
                        ctx,
                        "REP003",
                        stmt,
                        "returning a collection with unordered-set provenance "
                        "— return sorted(...) for a stable order",
                    )
            # Simple statements only — compound bodies are visited below,
            # so walking them here would double-report.
            for node in ast.walk(stmt) if not hasattr(stmt, "body") else ():
                if isinstance(node, ast.Call):
                    name = _attr_or_name(node.func)
                    if name in _ORDER_SINKS and any(
                        _tainted_payload(taint, arg) for arg in node.args
                    ):
                        yield _diag(
                            ctx,
                            "REP003",
                            node,
                            f"unordered set passed to order-sensitive "
                            f"{name}() — pass sorted(...) instead",
                        )

            # -- recurse into nested blocks (same scope; nested function
            # definitions get their own _check_function_sets pass) -----
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for attr in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, attr, None)
                    if nested:
                        yield from visit(nested)
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        yield from visit(handler.body)

    yield from visit(body)


@rule(
    "REP003",
    "unordered-iteration",
    "iterating a set/frozenset into schedule(), stats, or returned collections",
)
def check_unordered_iteration(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _check_function_sets(ctx, node, node.body)


# ----------------------------------------------------------------------
# REP004 — exact float comparison against simulation times
# ----------------------------------------------------------------------
_TIME_ATTRS = {"now", "_now"}
_TIME_NAMES = {
    "now",
    "sim_time",
    "event_time",
    "time_ns",
    "start_ns",
    "end_ns",
    "deadline_ns",
}


def _is_time_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS or node.attr in _TIME_NAMES
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES
    return False


@rule(
    "REP004",
    "float-time-equality",
    "float ==/!= against sim.now or event times",
)
def check_time_equality(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        comparators = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, comparators, comparators[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_time_expr(left) or _is_time_expr(right):
                # ``x == 0`` / ``is None`` style emptiness probes on
                # non-time values are fine; both operands constant-zero
                # comparisons against times are still fragile — flag.
                yield _diag(
                    ctx,
                    "REP004",
                    node,
                    "exact float comparison against a simulation time — "
                    "times are sums of float durations; compare with "
                    "ordering (<, <=) or an explicit tolerance",
                )
                break


# ----------------------------------------------------------------------
# REP005 — id()-based ordering/hashing
# ----------------------------------------------------------------------
@rule(
    "REP005",
    "id-ordering",
    "id()-based ordering or hashing of simulation objects",
)
def check_id_ordering(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and node.func.id not in ctx.imports
        ):
            yield _diag(
                ctx,
                "REP005",
                node,
                "id() of a simulation object — CPython addresses vary "
                "across runs, so any ordering, hashing, or tie-break "
                "derived from them is nondeterministic; use a stable key",
            )


# ----------------------------------------------------------------------
# REP006 — provably negative delays
# ----------------------------------------------------------------------
def _negative_literal(node: ast.expr) -> bool:
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
        and node.operand.value > 0
    ):
        return True
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value < 0
    )


@rule(
    "REP006",
    "negative-delay",
    "schedule() or yield with a provably negative literal delay",
)
def check_negative_delay(ctx: LintContext) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Yield):
            if node.value is not None and _negative_literal(node.value):
                yield _diag(
                    ctx,
                    "REP006",
                    node,
                    "yield of a negative literal delay resumes in the "
                    "simulation's past (the engine rejects it at runtime)",
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        if _attr_or_name(node.func) != "schedule" or not node.args:
            continue
        if _negative_literal(node.args[0]):
            yield _diag(
                ctx,
                "REP006",
                node,
                "schedule() with a negative literal delay fires in the "
                "simulation's past (the engine rejects it at runtime)",
            )


# ----------------------------------------------------------------------
# The dataflow suite: REP10x units, REP11x conservation, REP12x hot path
# ----------------------------------------------------------------------
def _iter_functions(
    ctx: LintContext,
) -> Iterator[Tuple[ast.AST, bool]]:
    """Every function definition in the file, with inherited hotness."""
    from repro.check.hotpath import is_hot_function

    def walk(body: List[ast.stmt], hot_parent: bool) -> Iterator[Tuple[ast.AST, bool]]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hot = hot_parent or is_hot_function(stmt, ctx.hot_lines)
                yield stmt, hot
                yield from walk(stmt.body, hot)
            else:
                for attr in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, attr, None)
                    if nested:
                        yield from walk(nested, hot_parent)
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        yield from walk(handler.body, hot_parent)

    yield from walk(list(ctx.tree.body), False)


def _dataflow_findings(ctx: LintContext) -> List[Tuple[str, ast.AST, str]]:
    """All CFG-based findings for one file, computed once and cached."""
    cached = getattr(ctx, "_dataflow_findings", None)
    if cached is not None:
        return cached
    from repro.check.conservation import analyze_conservation
    from repro.check.hotpath import analyze_hot_function
    from repro.check.units import analyze_units

    findings: List[Tuple[str, ast.AST, str]] = []
    for func, hot in _iter_functions(ctx):
        findings.extend(analyze_units(func, ctx.resolve_summary))
        result = analyze_conservation(func, ctx.resolve_summary)
        findings.extend(result.leaks)
        if hot:
            findings.extend(analyze_hot_function(func))
    ctx._dataflow_findings = findings
    return findings


def _yield_rule(ctx: LintContext, rule_id: str) -> Iterator[Diagnostic]:
    for found_rule, node, message in _dataflow_findings(ctx):
        if found_rule == rule_id:
            yield _diag(ctx, rule_id, node, message)


@rule(
    "REP101",
    "mixed-unit-arithmetic",
    "+/- (or a suffix-contradicting assignment) between different units",
)
def check_unit_arithmetic(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP101")


@rule(
    "REP102",
    "mixed-unit-comparison",
    "ordered comparison between values of different units",
)
def check_unit_comparison(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP102")


@rule(
    "REP103",
    "unit-sink-mismatch",
    "non-nanosecond value flowing into a ns delay sink or wrong converter",
)
def check_unit_sinks(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP103")


@rule(
    "REP111",
    "frame-leak",
    "free-list frame acquired but not released/installed on every CFG path",
)
def check_frame_conservation(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP111")


@rule(
    "REP112",
    "pmshr-leak",
    "PMSHR entry acquired but not released/transferred on every CFG path",
)
def check_pmshr_conservation(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP112")


@rule(
    "REP121",
    "hot-path-allocation",
    "per-call container/closure allocation inside a # repro: hot-path function",
)
def check_hot_allocations(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP121")


@rule(
    "REP122",
    "hot-path-string",
    "per-call string formatting inside a # repro: hot-path function",
)
def check_hot_strings(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP122")


@rule(
    "REP123",
    "hot-path-attribute-chain",
    "repeated deep attribute chain inside a hot-path loop; hoist a local",
)
def check_hot_attribute_chains(ctx: LintContext) -> Iterator[Diagnostic]:
    yield from _yield_rule(ctx, "REP123")
