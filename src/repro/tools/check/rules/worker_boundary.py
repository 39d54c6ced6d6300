"""worker-boundary: process pools ship data, not live objects.

The sharded engine fans work out over ``ProcessPoolExecutor``; everything
crossing that boundary is pickled into a child interpreter.  Shipping an
engine, index, cache or lock either fails to pickle or — worse — silently
duplicates megabytes of index state per task.  The contract is that only
plain data crosses: payloads, archive paths, query plans, and flat
arrays/tuples derived from them.

The rule finds every submission onto a process pool (``pool.submit``,
``pool.map``, and ``ProcessPoolExecutor(initializer=..., initargs=...)``)
and checks lexically that

* the submitted callable is a dedicated worker entry point (a name ending
  in ``_worker`` or ``_payload``) — not a lambda, not a bound method;
* no argument expression mentions a live-object identifier (``engine``,
  ``index``, ``pool``, ``cache``, ``rmq``, ``lock``, ``self``, ...)
  outside a whitelisted converter call such as ``index_to_payload``,
  ``export_for_index`` or a shared-memory export's ``spec()`` — a block
  *name* plus array layout is shippable currency (the worker attaches by
  name; no array bytes are pickled), the export object itself is not.

Pools are recognised by assignment/with-binding from a
``ProcessPoolExecutor(...)`` call, by annotations mentioning the type, or
by calls to same-module helpers whose return annotation mentions it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from .. import Finding, Rule
from ..project import ModuleInfo, Project, call_name

POOL_TYPE = "ProcessPoolExecutor"

#: Callables that may be submitted across the process boundary.
WORKER_NAME = re.compile(r"(_worker|_payload)$")

#: Converter calls whose result is plain data — arguments are not descended.
#: ``export_for_index`` / ``spec`` cover the shared-memory boundary: the
#: spec tuple carries a block name and an array layout, never the arrays.
CONVERTERS = {
    "index_to_payload",
    "export_for_index",
    "spec",
    "str",
    "int",
    "float",
    "len",
    "tuple",
    "list",
    "dict",
    "sorted",
}

#: Identifier roots that denote live objects which must never be shipped.
BANNED = {
    "self",
    "engine",
    "engines",
    "_engine",
    "_engines",
    "index",
    "indexes",
    "_index",
    "_indexes",
    "executor",
    "_executor",
    "pool",
    "pools",
    "_pool",
    "_pools",
    "_process_pools",
    "cache",
    "_cache",
    "rmq",
    "_rmq",
    "lock",
    "_lock",
    # Shared-memory exports hold live SharedMemory handles; only their
    # spec() tuple (block name + layout) may cross the boundary.
    "export",
    "exports",
    "_export",
    "_exports",
    "_shm_exports",
}


def _annotation_mentions_pool(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    return POOL_TYPE in ast.dump(node)


def _pool_returning_helpers(module: ModuleInfo) -> Set[str]:
    """Names of same-module functions whose return annotation mentions pools."""
    helpers: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _annotation_mentions_pool(node.returns):
                helpers.add(node.name)
    return helpers


def _pool_names(module: ModuleInfo, helpers: Set[str]) -> Set[str]:
    """Local/attribute names bound to a process pool anywhere in the module."""
    names: Set[str] = set()

    def is_pool_expr(value: ast.expr) -> bool:
        if isinstance(value, ast.Call):
            name = call_name(value.func)
            return name == POOL_TYPE or name in helpers
        return False

    def note(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign) and is_pool_expr(node.value):
            for target in node.targets:
                note(target)
        elif isinstance(node, ast.AnnAssign):
            if _annotation_mentions_pool(node.annotation) or (
                node.value is not None and is_pool_expr(node.value)
            ):
                note(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None and is_pool_expr(item.context_expr):
                    note(item.optional_vars)
        elif isinstance(node, ast.arg) and _annotation_mentions_pool(node.annotation):
            names.add(node.arg)
    return names


class WorkerBoundaryRule(Rule):
    name = "worker-boundary"
    description = "process-pool submissions carry only plain data"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if POOL_TYPE not in module.source:
                continue
            helpers = _pool_returning_helpers(module)
            pool_names = _pool_names(module, helpers)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                if call_name(node.func) == POOL_TYPE:
                    yield from self._check_constructor(module, node)
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in {"submit", "map"}:
                    continue
                if not self._is_pool(node.func.value, pool_names, helpers):
                    continue
                yield from self._check_submission(module, node)

    # -- helpers --------------------------------------------------------------------
    def _is_pool(self, value: ast.expr, pool_names: Set[str], helpers: Set[str]) -> bool:
        if isinstance(value, ast.Name):
            return value.id in pool_names
        if isinstance(value, ast.Attribute):
            return value.attr in pool_names
        if isinstance(value, ast.Subscript):
            return self._is_pool(value.value, pool_names, helpers)
        if isinstance(value, ast.Call):
            name = call_name(value.func)
            return name == POOL_TYPE or name in helpers
        return False

    def _check_constructor(self, module: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                yield from self._check_callable(module, keyword.value)
            elif keyword.arg == "initargs":
                yield from self._scan_payload(module, keyword.value)

    def _check_submission(self, module: ModuleInfo, node: ast.Call) -> Iterator[Finding]:
        args: List[ast.expr] = list(node.args)
        if args:
            yield from self._check_callable(module, args[0])
        for arg in args[1:]:
            yield from self._scan_payload(module, arg)
        for keyword in node.keywords:
            yield from self._scan_payload(module, keyword.value)

    def _check_callable(self, module: ModuleInfo, func: ast.expr) -> Iterator[Finding]:
        if isinstance(func, ast.Lambda):
            yield self.finding(
                module.relpath,
                func.lineno,
                "lambda submitted across the process boundary "
                "(use a module-level *_worker function)",
            )
            return
        name = call_name(func) if isinstance(func, (ast.Name, ast.Attribute)) else None
        if name is None or not WORKER_NAME.search(name):
            label = name if name is not None else ast.dump(func)[:40]
            yield self.finding(
                module.relpath,
                func.lineno,
                f"submitted callable {label!r} is not a worker entry point "
                "(expected a name ending in _worker or _payload)",
            )
        elif isinstance(func, ast.Attribute):
            # ``self.query_worker`` pickles the bound instance with it.
            yield from self._scan_payload(module, func.value)

    def _scan_payload(self, module: ModuleInfo, node: ast.expr) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if name in CONVERTERS:
                return
            for child in ast.iter_child_nodes(node):
                yield from self._scan_payload(module, child)  # type: ignore[arg-type]
            return
        if isinstance(node, ast.Name):
            if node.id in BANNED:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"live object {node.id!r} crosses the process boundary "
                    "(ship a payload, path, plan or flat array instead)",
                )
            return
        if isinstance(node, ast.Attribute):
            if node.attr in BANNED:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"live object attribute {node.attr!r} crosses the process "
                    "boundary (ship a payload, path, plan or flat array instead)",
                )
            else:
                yield from self._scan_payload(module, node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                yield from self._scan_payload(module, child)
            elif isinstance(child, ast.keyword):
                yield from self._scan_payload(module, child.value)
            elif isinstance(child, ast.comprehension):
                yield from self._scan_payload(module, child.iter)
