"""Lock discipline: an attribute guarded by a lock is always accessed under it.

The serve tier, the shared plan cache and the parallel bound are touched
from several threads at once; one counter read outside the lock (the
``ServiceStats`` race) is enough to make ``/stats`` report torn values.

Scope: classes that own a lock — a ``self.x = threading.Lock()`` /
``RLock()`` / ``Condition()`` assignment, or any ``with <...lock...>:``
block (this covers ``SharedBound``'s ``with self._value.get_lock():``).
Owning a lock is the author's own declaration that instances are shared
across threads.

The check is guarded-by consistency, per class: if an attribute is
accessed under a lock anywhere outside the constructor, every access to
it outside the constructor must hold that lock, and one lock only.
Constructor accesses are exempt (construction happens before
publication).  A private helper counts as locked when every
``self._helper`` use in the class holds the lock
(``ServiceStats._hit_rate_locked``).  The rule sees one module at a
time: accesses from other classes or modules are invisible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.lint.engine import ERROR, Finding, ModuleSource, Rule

__all__ = ["LockDisciplineRule"]

#: Methods that run before the instance is published (or at teardown).
_EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__del__", "__new__"})

#: Constructors whose result assigned to ``self.x`` makes ``x`` a lock.
_LOCK_TYPES = frozenset({"Lock", "RLock", "Condition"})

#: Method calls that mutate the receiver in place (reported as writes).
_MUTATORS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "inc", "insert",
        "move_to_end", "observe", "pop", "popitem", "remove", "setdefault",
        "update",
    }
)

#: Stands in for the lock a locked-context helper's callers hold.
_CALLER = "<caller>"


@dataclass(frozen=True)
class _Access:
    """One ``self.<attr>`` use inside a method body."""

    method: str
    attr: str
    node: ast.AST
    write: bool
    lock: Optional[str]  #: source text of the held lock, None when unlocked


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs(methods: list[ast.FunctionDef | ast.AsyncFunctionDef]) -> set[str]:
    """Attributes assigned a ``threading.Lock``-like object."""
    found = set()
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in _LOCK_TYPES:
                    found.update(filter(None, map(_self_attr, node.targets)))
    return found


class _Walker:
    """Collects ``self.<attr>`` uses of one class with their held lock."""

    def __init__(self, lock_attrs: set[str], method_names: set[str]) -> None:
        self.lock_attrs = lock_attrs
        self.method_names = method_names
        self.accesses: list[_Access] = []
        self.method = ""

    def is_lock(self, expr: ast.expr) -> bool:
        if _self_attr(expr) in self.lock_attrs:
            return True
        return any(
            (isinstance(node, ast.Attribute) and "lock" in node.attr.lower())
            or (isinstance(node, ast.Name) and "lock" in node.id.lower())
            for node in ast.walk(expr)
        )

    def walk_method(self, method: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.method = method.name
        for statement in method.body:
            self.walk(statement, None)

    def walk(self, node: ast.AST, lock: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes run later, under unknown lock state
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = lock
            for item in node.items:
                if self.is_lock(item.context_expr):
                    inner = ast.unparse(item.context_expr)
                else:
                    self.walk(item, lock)
            for statement in node.body:
                self.walk(statement, inner)
            return
        base: ast.AST = node
        write = False
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            while isinstance(base, ast.Subscript):  # self._plans[k] = v
                self.walk(base.slice, lock)
                base = base.value
            write = True
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and _self_attr(node.func.value):
                base, write = node.func.value, True  # self._items.append(x)
                for child in node.args + [k.value for k in node.keywords]:
                    self.walk(child, lock)
        attr = _self_attr(base)
        if attr is None:
            for child in ast.iter_child_nodes(base) if base is node else [base]:
                self.walk(child, lock)
            return
        if attr not in self.method_names and (
            attr in self.lock_attrs or "lock" in attr.lower()
        ):
            return  # touching the lock itself is how you lock
        write = write or isinstance(getattr(base, "ctx", None), (ast.Store, ast.Del))
        self.accesses.append(_Access(self.method, attr, base, write, lock))


class LockDisciplineRule(Rule):
    """Attributes a lock-owning class guards must always hold that lock."""

    name = "lock-discipline"
    severity = ERROR
    description = (
        "attribute of a lock-owning class accessed without the lock that "
        "guards it elsewhere, or guarded by two different locks"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        walker = _Walker(_lock_attrs(methods), {m.name for m in methods})
        owns_lock = bool(walker.lock_attrs) or any(
            walker.is_lock(item.context_expr)
            for method in methods
            for node in ast.walk(method)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        )
        if not owns_lock:
            return
        for method in methods:
            walker.walk_method(method)
        uses: dict[str, list[_Access]] = {}
        data: dict[str, list[_Access]] = {}
        for access in walker.accesses:
            if access.attr in walker.method_names:
                uses.setdefault(access.attr, []).append(access)
            elif access.method not in _EXEMPT_METHODS:
                data.setdefault(access.attr, []).append(access)
        locked = _locked_helpers(uses)
        for attr, accesses in sorted(data.items()):
            accesses = [
                replace(a, lock=_CALLER) if not a.lock and a.method in locked else a
                for a in accesses
            ]
            held = [a for a in accesses if a.lock]
            if not held:
                continue
            for access in accesses:
                if access.lock is None:
                    verb = "written" if access.write else "read"
                    yield module.finding(
                        self,
                        access.node,
                        f"{cls.name}.{attr} is {verb} without a lock here but "
                        f"accessed under a lock at {len(held)} other site(s); "
                        "hold the guarding lock or pragma with the safety "
                        "argument",
                    )
            names = sorted({a.lock for a in held if a.lock != _CALLER})
            if len(names) > 1:
                first = next(a for a in held if a.lock in names)
                yield module.finding(
                    self,
                    first.node,
                    f"{cls.name}.{attr} is guarded by {len(names)} different "
                    f"locks ({', '.join(map(str, names))}); pick one lock "
                    "per attribute",
                )


def _locked_helpers(uses: dict[str, list[_Access]]) -> set[str]:
    """Private methods every in-class use of which holds a lock."""
    locked: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, sites in sorted(uses.items()):
            if name in locked or not name.startswith("_") or name.startswith("__"):
                continue
            if all(site.lock or site.method in locked for site in sites):
                locked.add(name)
                changed = True
    return locked
