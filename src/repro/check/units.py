"""Unit-consistency analysis (REP101–REP103).

Infers a physical unit for every expression from three sources: naming
conventions (``*_ns``, ``*_cycles``, ``*_us``, ``*_instructions``,
``*_ghz``), the sanctioned converters on :class:`repro.config.CpuConfig`
(``cycles_to_ns`` / ``ns_to_cycles`` / ``kernel_ns_to_instructions``),
and one-level call summaries (:mod:`repro.check.summaries`).  A forward
dataflow pass propagates units through local assignments, so a value
keeps its unit when it moves between differently-named locals.

The lattice is flat: a value is either a *known* unit, ``neutral``
(bare numeric constants — compatible with anything), or unknown
(absent).  Joining two different known units yields unknown; the
analysis only fires on provable mixes, never on missing information.

Unit algebra for ``*`` and ``/`` encodes the two sanctioned conversions
(``ns × ghz → cycles``, ``cycles / ghz → ns``); everything else that
crosses units degrades to unknown, which keeps deliberate rescales like
``mean_us = total_ns / 1000.0`` quiet (division and multiplication are
exempt from the suffix-assignment check for the same reason).

Findings (rule id, ast node, message) are collected during a single
reporting sweep over the fixpoint states; the rule wrapper in
:mod:`repro.check.rules` turns them into diagnostics.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.cfg import Cfg, Node, build_cfg
from repro.check.dataflow import ForwardAnalysis, run_forward

NS = "ns"
US = "us"
MS = "ms"
CYCLES = "cycles"
INSTRUCTIONS = "instructions"
GHZ = "ghz"
#: Bare numeric constants: compatible with every unit.
NEUTRAL = "neutral"

_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_ns", NS),
    ("_us", US),
    ("_ms", MS),
    ("_cycles", CYCLES),
    ("_instructions", INSTRUCTIONS),
    ("_instr", INSTRUCTIONS),
    ("_ghz", GHZ),
)

_EXACT = {"ns": NS, "us": US, "ms": MS, "cycles": CYCLES, "ghz": GHZ}

#: Sanctioned converters (attribute name → (argument unit, result unit)).
CONVERTERS: Dict[str, Tuple[str, str]] = {
    "cycles_to_ns": (CYCLES, NS),
    "ns_to_cycles": (NS, CYCLES),
    "kernel_ns_to_instructions": (NS, INSTRUCTIONS),
}

#: Calls whose delay/duration argument is nanoseconds, and its position.
#: A bare ``yield <expr>`` is a nanosecond sink too: a process yields its
#: delays as plain numbers (see :mod:`repro.sim.process`).
NS_SINKS: Dict[str, int] = {
    "schedule": 0,
    "stall": 0,
    "kernel_phase": 0,
    "timer": 1,
}

#: Builtins that preserve the unit of their arguments.
_UNIT_PRESERVING = {"min", "max", "abs", "round", "int", "float"}

Finding = Tuple[str, ast.AST, str]
Resolver = Callable[[ast.Call], Optional[object]]


def name_unit(name: str) -> Optional[str]:
    """Unit implied by an identifier's naming convention, if any."""
    if name in _EXACT:
        return _EXACT[name]
    for suffix, unit in _SUFFIXES:
        if name.endswith(suffix):
            return unit
    return None


def _join_units(left: Optional[str], right: Optional[str]) -> Optional[str]:
    if left == right:
        return left
    if left == NEUTRAL:
        return right
    if right == NEUTRAL:
        return left
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class UnitInference:
    """Expression-level unit inference with optional finding collection."""

    def __init__(self, resolver: Optional[Resolver] = None) -> None:
        self.resolver = resolver

    # -- core ----------------------------------------------------------
    def unit_of(
        self,
        node: ast.expr,
        env: Dict[str, str],
        problems: Optional[List[Finding]] = None,
    ) -> Optional[str]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return NEUTRAL
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return name_unit(node.id)
        if isinstance(node, ast.Attribute):
            return name_unit(node.attr)
        if isinstance(node, ast.Subscript):
            # Container suffixes describe the elements: ``delays_ns[i]``.
            base = self.unit_of(node.value, env, problems)
            return None if base == NEUTRAL else base
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand, env, problems)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env, problems)
        if isinstance(node, ast.BoolOp):
            unit: Optional[str] = NEUTRAL
            for value in node.values:
                unit = _join_units(unit, self.unit_of(value, env, problems))
            return unit
        if isinstance(node, ast.IfExp):
            self.unit_of(node.test, env, problems)
            return _join_units(
                self.unit_of(node.body, env, problems),
                self.unit_of(node.orelse, env, problems),
            )
        if isinstance(node, ast.Compare):
            self._compare(node, env, problems)
            return None
        if isinstance(node, ast.Call):
            return self._call(node, env, problems)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.unit_of(element, env, problems)
            return None
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            unit = None if value is None else self.unit_of(value, env, problems)
            if (
                problems is not None
                and isinstance(node, ast.Yield)
                and unit not in (None, NEUTRAL, NS)
            ):
                problems.append(
                    (
                        "REP103",
                        node,
                        "a yielded number is a nanosecond delay but this "
                        f"value is {unit} — convert with "
                        "CpuConfig.cycles_to_ns (or the matching factor) "
                        "first",
                    )
                )
            return None
        if isinstance(node, ast.Starred):
            return self.unit_of(node.value, env, problems)
        return None

    def _binop(
        self,
        node: ast.BinOp,
        env: Dict[str, str],
        problems: Optional[List[Finding]],
    ) -> Optional[str]:
        left = self.unit_of(node.left, env, problems)
        right = self.unit_of(node.right, env, problems)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                problems is not None
                and left not in (None, NEUTRAL)
                and right not in (None, NEUTRAL)
                and left != right
            ):
                op = "+" if isinstance(node.op, ast.Add) else "-"
                problems.append(
                    (
                        "REP101",
                        node,
                        f"mixed-unit arithmetic: {left} {op} {right} — "
                        "convert with CpuConfig.cycles_to_ns/ns_to_cycles "
                        "before combining",
                    )
                )
            return _join_units(left, right)
        if isinstance(node.op, ast.Mult):
            pair = {left, right}
            if pair == {NS, GHZ}:
                return CYCLES
            return _join_units(left, right) if NEUTRAL in (left, right) else None
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left == CYCLES and right == GHZ:
                return NS
            if right == NEUTRAL:
                return left
            if left is not None and left == right:
                return NEUTRAL
            return None
        if isinstance(node.op, ast.Mod):
            if right in (NEUTRAL, left):
                return left
            return None
        return None

    def _compare(
        self,
        node: ast.Compare,
        env: Dict[str, str],
        problems: Optional[List[Finding]],
    ) -> None:
        operands = [node.left, *node.comparators]
        units = [self.unit_of(operand, env, problems) for operand in operands]
        if problems is None:
            return
        for op, (left, right) in zip(node.ops, zip(units, units[1:])):
            if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                continue
            if (
                left not in (None, NEUTRAL)
                and right not in (None, NEUTRAL)
                and left != right
            ):
                problems.append(
                    (
                        "REP102",
                        node,
                        f"comparison between different units ({left} vs "
                        f"{right}) — convert to a common unit first",
                    )
                )

    def _call(
        self,
        node: ast.Call,
        env: Dict[str, str],
        problems: Optional[List[Finding]],
    ) -> Optional[str]:
        arg_units = [self.unit_of(arg, env, problems) for arg in node.args]
        for keyword in node.keywords:
            self.unit_of(keyword.value, env, problems)
        name = _call_name(node.func)

        if name in CONVERTERS:
            expected, result = CONVERTERS[name]
            if (
                problems is not None
                and arg_units
                and arg_units[0] not in (None, NEUTRAL, expected)
            ):
                problems.append(
                    (
                        "REP103",
                        node,
                        f"{name}() expects {expected} but the argument is "
                        f"{arg_units[0]}",
                    )
                )
            return result

        if problems is not None and name in NS_SINKS:
            position = NS_SINKS[name]
            if position < len(arg_units) and arg_units[position] not in (
                None,
                NEUTRAL,
                NS,
            ):
                problems.append(
                    (
                        "REP103",
                        node,
                        f"{name}() takes a nanosecond delay but this "
                        f"argument is {arg_units[position]} — convert with "
                        "CpuConfig.cycles_to_ns (or the matching factor) "
                        "first",
                    )
                )

        if name in _UNIT_PRESERVING and arg_units:
            unit: Optional[str] = NEUTRAL
            for index, present in enumerate(arg_units):
                merged = _join_units(unit, present)
                if (
                    problems is not None
                    and name in {"min", "max"}
                    and merged is None
                    and unit not in (None, NEUTRAL)
                    and present not in (None, NEUTRAL)
                ):
                    problems.append(
                        (
                            "REP101",
                            node,
                            f"{name}() mixes {unit} and {present} operands",
                        )
                    )
                unit = merged
            return unit

        summary = self.resolver(node) if self.resolver is not None else None
        if summary is not None:
            self._check_summary_args(node, arg_units, summary, problems)
            return getattr(summary, "returns_unit", None)
        return None

    def _check_summary_args(
        self,
        node: ast.Call,
        arg_units: List[Optional[str]],
        summary: object,
        problems: Optional[List[Finding]],
    ) -> None:
        if problems is None:
            return
        params: Tuple[str, ...] = getattr(summary, "params", ())
        param_units: Dict[str, str] = getattr(summary, "param_units", {})
        for position, unit in enumerate(arg_units):
            if position >= len(params) or unit in (None, NEUTRAL):
                continue
            expected = param_units.get(params[position])
            if expected is not None and expected != unit:
                problems.append(
                    (
                        "REP103",
                        node,
                        f"argument {params[position]!r} of "
                        f"{getattr(summary, 'name', '?')}() expects "
                        f"{expected} but this value is {unit}",
                    )
                )


class UnitAnalysis(ForwardAnalysis):
    """Propagates known units through local assignments."""

    def __init__(self, inference: UnitInference) -> None:
        self.inference = inference

    def initial_state(self, cfg: Cfg) -> Dict[str, str]:
        env: Dict[str, str] = {}
        arguments = cfg.func.args
        params = [
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ]
        for param in params:
            unit = name_unit(param.arg)
            if unit is not None:
                env[param.arg] = unit
        return env

    def join(self, left: Dict[str, str], right: Dict[str, str]) -> Dict[str, str]:
        return {
            key: value
            for key, value in left.items()
            if right.get(key) == value
        }

    def _bind(
        self, env: Dict[str, str], target: ast.expr, unit: Optional[str]
    ) -> None:
        if isinstance(target, ast.Name):
            if unit not in (None, NEUTRAL):
                env[target.id] = unit
            else:
                env.pop(target.id, None)
                suffix = name_unit(target.id)
                if suffix is not None:
                    env[target.id] = suffix
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(env, element, None)

    def transfer(self, node: Node, state: Dict[str, str]) -> Dict[str, str]:
        stmt = node.stmt
        env = dict(state)
        if node.kind == "stmt":
            if isinstance(stmt, ast.Assign):
                unit = self.inference.unit_of(stmt.value, env)
                for target in stmt.targets:
                    self._bind(env, target, unit)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                unit = self.inference.unit_of(stmt.value, env)
                self._bind(env, stmt.target, unit)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    left = env.get(stmt.target.id) or name_unit(stmt.target.id)
                    right = self.inference.unit_of(stmt.value, env)
                    self._bind(env, stmt.target, _join_units(left, right))
        elif node.kind == "test" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(env, stmt.target, self.inference.unit_of(stmt.iter, env))
        return env


def _top_level_exprs(node: Node) -> List[ast.expr]:
    stmt = node.stmt
    if node.kind == "test":
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        return []
    if node.kind != "stmt":
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, (ast.Return, ast.Raise)):
        value = getattr(stmt, "value", None) or getattr(stmt, "exc", None)
        return [value] if value is not None else []
    if isinstance(stmt, ast.Assert):
        return [stmt.test]
    return []


def analyze_units(
    func: ast.AST, resolver: Optional[Resolver] = None
) -> List[Finding]:
    """Run the unit analysis over one function; returns findings."""
    inference = UnitInference(resolver)
    analysis = UnitAnalysis(inference)
    cfg = build_cfg(func)
    in_states = run_forward(cfg, analysis)
    findings: List[Finding] = []
    seen = set()
    for node in cfg.nodes:
        env = in_states.get(node.index)
        if env is None:
            continue
        problems: List[Finding] = []
        for expr in _top_level_exprs(node):
            inference.unit_of(expr, env, problems)
        stmt = node.stmt
        if node.kind == "stmt" and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if value is not None and not (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Mult, ast.Div, ast.FloorDiv))
            ):
                unit = inference.unit_of(value, env)
                if unit not in (None, NEUTRAL):
                    for target in targets:
                        declared = None
                        if isinstance(target, ast.Name):
                            declared = name_unit(target.id)
                        elif isinstance(target, ast.Attribute):
                            declared = name_unit(target.attr)
                        if declared is not None and declared != unit:
                            problems.append(
                                (
                                    "REP101",
                                    stmt,
                                    f"assigning a {unit} value to "
                                    f"{declared}-suffixed name — convert or "
                                    "rename",
                                )
                            )
        for finding in problems:
            rule_id, where, message = finding
            key = (
                rule_id,
                getattr(where, "lineno", 0),
                getattr(where, "col_offset", 0),
                message,
            )
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return findings
