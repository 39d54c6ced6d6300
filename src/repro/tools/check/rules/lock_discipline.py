"""lock-discipline: ``# guarded-by:`` annotations are honoured.

Shared mutable state in the façade declares its lock with a trailing
comment on the attribute's initialising assignment::

    self._entries = OrderedDict()   # guarded-by: _lock
    _PROFILER = None                # guarded-by: _INSTALL_LOCK

The rule registers every annotated attribute (instance attributes
initialised in a class body, and module-level globals) and then verifies
that each mutation — assignment, augmented assignment, ``del``,
subscript store, or a mutating method call such as ``.append`` /
``.update`` — happens lexically inside a ``with`` over the named lock in
the same function.  The initialising method (``__init__``) is exempt:
the object is not shared before construction completes.

The pseudo-lock ``event-loop`` declares single-owner state: attributes
mutated only from methods of the declaring class (everything runs on the
service's event loop, so no lock object exists).  For those, the rule
flags mutations through any receiver other than ``self``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .. import Finding, Rule
from ..project import ModuleInfo, Project

EVENT_LOOP = "event-loop"

MUTATORS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "remove",
    "pop",
    "popitem",
    "popleft",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "move_to_end",
    "sort",
    "reverse",
}


def _self_attr(node: ast.expr) -> Optional[str]:
    """Attribute name when ``node`` is ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _flatten_targets(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten_targets(target.value)
    else:
        yield target


def _store_root(target: ast.expr) -> ast.expr:
    """The object being mutated by a store target (unwrap subscripts)."""
    while isinstance(target, ast.Subscript):
        target = target.value
    return target


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = "guarded-by annotated state is only mutated under its lock"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if "guarded-by" not in module.source:
                continue
            class_guards, module_guards = self._collect_guards(module)
            event_loop_attrs = {
                attr
                for guards in class_guards.values()
                for attr, guard in guards.items()
                if guard == EVENT_LOOP
            }
            for cls, guards in class_guards.items():
                yield from self._check_class(module, cls, guards)
            yield from self._check_module_globals(module, module_guards)
            yield from self._check_foreign_mutations(module, class_guards, event_loop_attrs)

    # -- registration ---------------------------------------------------------------
    def _collect_guards(
        self, module: ModuleInfo
    ) -> Tuple[Dict[ast.ClassDef, Dict[str, str]], Dict[str, str]]:
        class_guards: Dict[ast.ClassDef, Dict[str, str]] = {}
        module_guards: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            else:
                continue
            guard = module.guard_annotation(node.lineno)
            if guard is None:
                continue
            attr = _self_attr(target)
            if attr is not None:
                cls = module.enclosing_class(node)
                if cls is not None:
                    class_guards.setdefault(cls, {})[attr] = guard
            elif isinstance(target, ast.Name) and module.enclosing_function(node) is None:
                module_guards[target.id] = guard
        return class_guards, module_guards

    # -- instance attributes ---------------------------------------------------------
    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef, guards: Dict[str, str]
    ) -> Iterator[Finding]:
        for node in ast.walk(cls):
            func = module.enclosing_function(node)
            if func is None or getattr(func, "name", "") == "__init__":
                continue
            if module.enclosing_class(func) is not cls:
                continue
            for attr, mutation_line in self._attr_mutations(node, guards):
                guard = guards[attr]
                if guard == EVENT_LOOP:
                    continue  # owner-class mutation; foreign receivers are
                    # checked in _check_foreign_mutations.
                if not self._under_lock(module, node, func, guard, receiver="self"):
                    yield self.finding(
                        module.relpath,
                        mutation_line,
                        f"{cls.name}.{attr} is guarded-by {guard} but mutated "
                        f"outside `with self.{guard}`",
                    )

    def _attr_mutations(
        self, node: ast.AST, guards: Dict[str, str]
    ) -> Iterator[Tuple[str, int]]:
        """(attr, line) pairs for guarded ``self.<attr>`` mutations at ``node``."""
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                targets.extend(_flatten_targets(target))
        elif isinstance(node, ast.AugAssign):
            targets.append(node.target)
        elif isinstance(node, ast.Delete):
            targets.extend(node.targets)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                attr = _self_attr(node.func.value)
                if attr is not None and attr in guards:
                    yield attr, node.lineno
            return
        for target in targets:
            attr = _self_attr(_store_root(target))
            if attr is not None and attr in guards:
                yield attr, target.lineno

    # -- module globals ---------------------------------------------------------------
    def _check_module_globals(
        self, module: ModuleInfo, guards: Dict[str, str]
    ) -> Iterator[Finding]:
        if not guards:
            return
        for node in ast.walk(module.tree):
            func = module.enclosing_function(node)
            if func is None:
                continue  # the initialising module-level assignment
            name: Optional[str] = None
            line = getattr(node, "lineno", 0)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                raw_targets = node.targets if not isinstance(node, ast.AugAssign) else [node.target]
                for target in raw_targets:
                    for flat in _flatten_targets(target):
                        root = _store_root(flat)
                        if isinstance(root, ast.Name) and root.id in guards:
                            name = root.id
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                    value = node.func.value
                    if isinstance(value, ast.Name) and value.id in guards:
                        name = value.id
            if name is None:
                continue
            guard = guards[name]
            if not self._under_lock(module, node, func, guard, receiver=None):
                yield self.finding(
                    module.relpath,
                    line,
                    f"{name} is guarded-by {guard} but mutated outside `with {guard}`",
                )

    # -- event-loop state -------------------------------------------------------------
    def _check_foreign_mutations(
        self,
        module: ModuleInfo,
        class_guards: Dict[ast.ClassDef, Dict[str, str]],
        event_loop_attrs: Set[str],
    ) -> Iterator[Finding]:
        if not event_loop_attrs:
            return
        for node in ast.walk(module.tree):
            attr: Optional[str] = None
            line = getattr(node, "lineno", 0)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                raw_targets = node.targets if not isinstance(node, ast.AugAssign) else [node.target]
                for target in raw_targets:
                    for flat in _flatten_targets(target):
                        root = _store_root(flat)
                        if (
                            isinstance(root, ast.Attribute)
                            and root.attr in event_loop_attrs
                            and not (
                                isinstance(root.value, ast.Name) and root.value.id == "self"
                            )
                        ):
                            attr = root.attr
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in event_loop_attrs
                    and not (
                        isinstance(node.func.value.value, ast.Name)
                        and node.func.value.value.id == "self"
                    )
                ):
                    attr = node.func.value.attr
            if attr is not None:
                yield self.finding(
                    module.relpath,
                    line,
                    f"{attr} is event-loop state of its owning class but is "
                    "mutated through a foreign receiver",
                )

    # -- lock matching ----------------------------------------------------------------
    def _under_lock(
        self,
        module: ModuleInfo,
        node: ast.AST,
        func: ast.AST,
        guard: str,
        receiver: Optional[str],
    ) -> bool:
        """Whether ``node`` sits inside ``with <guard>`` within ``func``."""
        current = module.parents.get(node)
        while current is not None and current is not func:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(current, (ast.With, ast.AsyncWith)):
                for item in current.items:
                    expr = item.context_expr
                    if receiver == "self":
                        if _self_attr(expr) == guard:
                            return True
                    if isinstance(expr, ast.Name) and expr.id == guard:
                        return True
            current = module.parents.get(current)
        return False
