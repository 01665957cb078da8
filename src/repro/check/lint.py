"""Project-specific static analysis (AST lint).

Each rule is a small class with a stable ID, scoped by the dotted module
path inferred from the file location (``src/repro/mf/numeric.py`` →
``repro.mf.numeric``). Findings carry file/line/column evidence and can be
suppressed inline with ``# repro: noqa[RP001]``, a comma-separated list
``# repro: noqa[RP001,RP004]``, or ``# repro: noqa`` for all rules, on
the offending line. Malformed bracket contents suppress nothing (they
never blanket-suppress).

Rule catalog
------------
RP001  no bare ``except`` and no silently-swallowed broad handlers
RP002  no mutation of CSC index arrays outside :mod:`repro.sparse`
RP003  numpy dtype discipline in kernel packages (mf, sparse, symbolic)
RP004  no ``print`` in library code (CLI excluded)
RP005  package ``__init__`` modules must declare ``__all__``
RP006  unused imports (``__all__``-aware; ``__init__`` re-exports exempt)
RP007  no direct ``time.perf_counter()`` outside ``repro.obs``
RP008  no raw threading / concurrent.futures outside :mod:`repro.exec`
RP009  shared-mutable-state discipline in :mod:`repro.exec` (no
       module-level mutable containers, no ``global`` rebinding)
RP010  lock discipline: primitives constructed only in
       :mod:`repro.exec.pool` (or via ``make_lock``), ``with``-statement
       acquisition only — no bare ``acquire``/``release``

Run via ``python -m repro.cli check --lint [PATHS…]`` or
:func:`lint_paths`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.util.errors import LintError

__all__ = [
    "LintFinding",
    "LintContext",
    "LintRule",
    "DEFAULT_RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: the bracket group is permissive on purpose — anything inside ``[...]``
#: is captured and tokenized by ``_suppressed``, so a malformed list
#: (``noqa[RP001;bogus]``) suppresses only what parses as a rule id
#: instead of falling back to suppress-everything.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<ids>[^\]]*)\])?", re.IGNORECASE
)

#: separators tolerated inside a noqa rule list: commas (canonical),
#: whitespace, and semicolons
_NOQA_SPLIT_RE = re.compile(r"[,;\s]+")

#: packages whose kernels must use the canonical dtypes (RP003)
KERNEL_PACKAGES = ("repro.mf", "repro.sparse", "repro.symbolic")

#: dtype spellings allowed in kernel code, compared lower-case with any
#: byte-order prefix stripped: the canonical int64/float64 pair (also as
#: INDEX_DTYPE/VALUE_DTYPE), float32 (the mixed-precision working dtype),
#: booleans, float (always float64 in numpy) and their struct codes —
#: notably absent: platform-dependent ``int`` and every width below float32.
ALLOWED_DTYPES = frozenset(
    {"int64", "float64", "float32", "bool", "bool_", "float", "intp", "complex128"}
    | {"index_dtype", "value_dtype", "i8", "f8", "f4", "?"}
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Everything a rule sees about one source file."""

    path: str
    #: dotted module path ("repro.mf.numeric"); "" when not under repro
    module: str
    tree: ast.Module
    lines: tuple[str, ...]

    def within(self, *packages: str) -> bool:
        """True when the module is one of *packages* or inside one."""
        return any(self.module == p or self.module.startswith(p + ".") for p in packages)

    @property
    def in_repro(self) -> bool:
        return self.within("repro")

    @property
    def is_package_init(self) -> bool:
        return Path(self.path).name == "__init__.py"


class LintRule:
    """Base class: subclasses set ``id``/``title`` and yield findings."""

    id: str = "RP000"
    title: str = ""

    def applies(self, ctx: LintContext) -> bool:
        return True

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str
    ) -> LintFinding:
        return LintFinding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# -- RP001 -------------------------------------------------------------------


def _handler_type_names(node: ast.ExceptHandler) -> list[str]:
    """Terminal names of the exception types a handler catches."""
    expr = node.type
    exprs: list[ast.expr]
    if expr is None:
        return []
    exprs = list(expr.elts) if isinstance(expr, ast.Tuple) else [expr]
    names = []
    for e in exprs:
        if isinstance(e, ast.Name):
            names.append(e.id)
        elif isinstance(e, ast.Attribute):
            names.append(e.attr)
    return names


class NoSwallowedExceptRule(LintRule):
    """RP001: no bare ``except``; broad handlers must re-raise.

    A bare ``except:`` is always flagged. ``except Exception`` /
    ``except BaseException`` is flagged when the handler body contains no
    ``raise`` — a silently-swallowed catch-all hides real failures (the
    retry paths in the serving layer must catch the typed
    :class:`~repro.util.errors.ReproError` hierarchy instead).
    """

    id = "RP001"
    title = "bare or swallowed broad except"

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:' — name the exception types"
                )
                continue
            broad = {"Exception", "BaseException"} & set(
                _handler_type_names(node)
            )
            if broad and not any(
                isinstance(inner, ast.Raise)
                for stmt in node.body
                for inner in ast.walk(stmt)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"'except {sorted(broad)[0]}' swallows the error — "
                    "re-raise or catch a typed ReproError subclass",
                )


# -- RP002 -------------------------------------------------------------------

_INDEX_ATTRS = frozenset({"indptr", "indices"})
#: ndarray methods that mutate in place
_MUTATING_METHODS = frozenset({"sort", "fill", "resize", "put", "partition"})


def _index_attr(expr: ast.expr) -> ast.Attribute | None:
    """The ``x.indptr`` / ``x.indices`` attribute inside an lvalue, if any.

    Recognizes direct rebinds (``m.indptr = …``), element stores
    (``m.indices[k] = …``), and slice stores. ``self.indptr = …`` is
    exempt: a class initializing its *own* attributes is construction,
    not corruption of a shared pattern.
    """
    if isinstance(expr, ast.Attribute) and expr.attr in _INDEX_ATTRS:
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return None
        return expr
    if isinstance(expr, ast.Subscript):
        return _index_attr(expr.value)
    return None


class NoIndexMutationRule(LintRule):
    """RP002: CSC index arrays are immutable outside :mod:`repro.sparse`.

    The analysis cache, refactorization paths, and the simulator all share
    pattern structures by reference; in-place edits to ``indptr`` /
    ``indices`` anywhere but the sparse kernels silently corrupt every
    holder of the pattern.
    """

    id = "RP002"
    title = "index-array mutation outside repro.sparse"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro and not ctx.module.startswith("repro.sparse")

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in _MUTATING_METHODS
                    and _index_attr(f.value) is not None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"in-place '{f.attr}()' on a CSC index array — "
                        "copy it or do this inside repro.sparse",
                    )
                continue
            for t in targets:
                attr = _index_attr(t)
                if attr is not None:
                    yield self.finding(
                        ctx,
                        attr,
                        f"assignment to '.{attr.attr}' outside repro.sparse "
                        "— build a new matrix instead of mutating the "
                        "shared pattern",
                    )


# -- RP003 -------------------------------------------------------------------


def _dtype_name(expr: ast.expr) -> str | None:
    """Best-effort name of an explicit dtype argument; None = not literal
    enough to judge (left alone)."""
    if isinstance(expr, ast.Name):
        # A variable named `dtype`/`wdtype`/… carries a dtype chosen (and
        # validated) elsewhere — e.g. `work_dtype(precision)` — the same
        # dynamic-passthrough situation as the `x.dtype` attribute below.
        return None if expr.id.lower().endswith("dtype") else expr.id
    if isinstance(expr, ast.Attribute):
        # `x.dtype` is a dynamic passthrough of an existing array's dtype,
        # not a literal choice — leave it alone.
        return None if expr.attr == "dtype" else expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


class KernelDtypeRule(LintRule):
    """RP003: kernel packages use the canonical dtypes.

    Index arrays are int64 (``repro.util.validation.INDEX_DTYPE``); values
    are float64 (``VALUE_DTYPE``) or float32, the two working precisions
    of the mixed-precision regime (``repro.util.validation.WORK_DTYPES``).
    Anything narrower or platform-dependent (``int32``, ``float16``,
    plain ``int``, ``"i4"``…) changes answer bits and overflows on
    paper-scale problems.
    """

    id = "RP003"
    title = "non-canonical dtype in kernel code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.within(*KERNEL_PACKAGES)

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                name = _dtype_name(kw.value)
                if name is None:
                    continue
                if name.lower().lstrip("<>=|") in ALLOWED_DTYPES:
                    continue
                yield self.finding(
                    ctx,
                    kw.value,
                    f"dtype={name!r} in a kernel — use INDEX_DTYPE (int64), "
                    "VALUE_DTYPE (float64), or a WORK_DTYPES precision "
                    "from repro.util.validation",
                )


# -- RP004 -------------------------------------------------------------------


class NoPrintRule(LintRule):
    """RP004: no ``print`` in library code.

    Reporting goes through return values and the CLI/analysis layers;
    stray prints corrupt the machine-readable output of ``repro.cli``
    subcommands (tables, traces) when the library runs underneath them.
    """

    id = "RP004"
    title = "print() in library code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro and ctx.module != "repro.cli"

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "print() in library code — return data or raise; only "
                    "repro.cli talks to stdout",
                )


# -- RP005 -------------------------------------------------------------------


class InitNeedsAllRule(LintRule):
    """RP005: package ``__init__`` modules declare ``__all__``.

    The package ``__init__`` files are the public API surface; an explicit
    ``__all__`` keeps re-exports deliberate and lets RP006 distinguish
    re-exports from dead imports.
    """

    id = "RP005"
    title = "package __init__ without __all__"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_package_init and bool(ctx.tree.body)

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        has_content = any(
            isinstance(n, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef))
            for n in ctx.tree.body
        )
        if not has_content:
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                return
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
            ):
                return
        yield self.finding(
            ctx,
            ctx.tree.body[0],
            "public package __init__ must declare __all__",
        )


# -- RP006 -------------------------------------------------------------------


class UnusedImportRule(LintRule):
    """RP006: unused imports.

    A binding introduced by ``import``/``from … import`` must be
    referenced by name, listed in ``__all__``, or re-exported via the
    ``import x as x`` convention. Package ``__init__`` modules are exempt
    (their imports *are* the API). ``from __future__`` and ``import *``
    are ignored.
    """

    id = "RP006"
    title = "unused import"

    def applies(self, ctx: LintContext) -> bool:
        return not ctx.is_package_init

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        imported: list[tuple[str, str, ast.AST]] = []  # (binding, shown, node)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bind = alias.asname or alias.name.split(".")[0]
                    imported.append((bind, alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.asname == alias.name:
                        continue  # explicit re-export convention
                    bind = alias.asname or alias.name
                    imported.append((bind, alias.name, node))
        if not imported:
            return
        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name):
                    used.add(base.id)
        exported = _declared_all(ctx.tree)
        for bind, shown, node in imported:
            if bind in used or bind in exported:
                continue
            yield self.finding(
                ctx,
                node,
                f"'{shown}' imported but unused",
            )


def _declared_all(tree: ast.Module) -> set[str]:
    """String entries of a top-level ``__all__`` list/tuple, if present."""
    for node in tree.body:
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            value = node.value
        if value is not None and isinstance(value, (ast.List, ast.Tuple)):
            return {
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


# -- RP007 -------------------------------------------------------------------

_CLOCK_CALLS = frozenset({"perf_counter", "perf_counter_ns"})


class NoDirectPerfCounterRule(LintRule):
    """RP007: no direct ``time.perf_counter()`` in library code.

    Host timing must flow through :func:`repro.obs.spans.timed` (a phase
    whose duration is a value) or :func:`repro.obs.spans.span` so that
    every measurement is a span the observability layer can see (and so
    the disabled path of ``span`` stays clock-free). Only ``repro.obs``
    itself may touch the raw clock.
    """

    id = "RP007"
    title = "direct perf_counter() outside repro.obs"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro and not ctx.within("repro.obs")

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name: str | None = None
            if isinstance(f, ast.Attribute) and f.attr in _CLOCK_CALLS:
                name = f.attr
            elif isinstance(f, ast.Name) and f.id in _CLOCK_CALLS:
                name = f.id
            if name is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"direct {name}() — time the block with "
                    "repro.obs.spans.timed (or span)",
                )


# -- RP008 -------------------------------------------------------------------

#: module roots whose import anywhere else indicates ad-hoc concurrency
_THREADING_MODULES = frozenset(
    {"threading", "_thread", "concurrent", "multiprocessing", "queue"}
)


class NoRawThreadingRule(LintRule):
    """RP008: raw thread primitives live only in :mod:`repro.exec`.

    The bitwise-oracle contract of the threads backend holds because all
    shared-memory concurrency is concentrated in one audited worker pool
    (:mod:`repro.exec.pool`). An ad-hoc ``threading.Thread`` or
    ``ThreadPoolExecutor`` elsewhere reintroduces scheduling-dependent
    operation orders — and answer bits — that no test would pin down.
    Route parallel work through ``SparseSolver(..., backend="threads")``
    or the :class:`repro.exec.pool.TaskPool` API instead.
    """

    id = "RP008"
    title = "raw threading outside repro.exec"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro and not ctx.within("repro.exec")

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                root = name.split(".")[0]
                if root in _THREADING_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import of {name!r} outside repro.exec — all "
                        "shared-memory concurrency goes through the "
                        "repro.exec worker pool (backend='threads')",
                    )


# -- RP009 -------------------------------------------------------------------

#: immutable value expressions allowed at module level in repro.exec
_IMMUTABLE_CALLS = frozenset({"frozenset", "tuple", "int", "float", "str", "bool"})


def _mutable_container_expr(expr: ast.expr) -> str | None:
    """The kind of mutable container *expr* builds, or None."""
    if isinstance(expr, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("list", "dict", "set", "bytearray", "deque", "defaultdict"):
            return expr.func.id
    return None


class SharedMutableStateRule(LintRule):
    """RP009: shared-mutable-state discipline in :mod:`repro.exec`.

    Task bodies run on concurrent worker threads; any module-level
    mutable container (list/dict/set, ``defaultdict``…) in the execution
    backend is shared by *every* pool run in the process and is exactly
    the kind of state a schedule-dependent write order corrupts. The
    sanctioned patterns are function-local state captured by task
    closures (per-run by construction), per-slot ownership partitioning,
    and ``_RunState`` fields guarded by the pool's condition variable.
    ``global`` rebinding anywhere in the package is flagged for the same
    reason. Annotated module *constants* (tuples, frozensets, numbers)
    stay fine.
    """

    id = "RP009"
    title = "module-level mutable state in repro.exec"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.within("repro.exec")

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        for node in ctx.tree.body:
            value: ast.expr | None = None
            names: list[str] = []
            if isinstance(node, ast.Assign):
                value = node.value
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                if isinstance(node.target, ast.Name):
                    names = [node.target.id]
            if value is None or not names:
                continue
            if names == ["__all__"]:
                continue
            kind = _mutable_container_expr(value)
            if kind is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"module-level mutable {kind} {names[0]!r} in the "
                    "execution backend — shared across every worker and "
                    "pool run; keep mutable state function-local (task "
                    "closures) or inside the lock-guarded _RunState",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx,
                    node,
                    f"'global {', '.join(node.names)}' in the execution "
                    "backend — rebinding module state from task bodies is "
                    "schedule-dependent; thread state through _RunState "
                    "or closures",
                )


# -- RP010 -------------------------------------------------------------------

#: thread-synchronization primitive constructors; building one of these
#: anywhere but repro.exec.pool (which wraps them behind make_lock and the
#: pool's own condition variable) evades the audited lock discipline
_SYNC_PRIMITIVES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
    }
)

#: the one module allowed to construct thread primitives
_LOCK_HOME = "repro.exec.pool"


class LockDisciplineRule(LintRule):
    """RP010: locks come from the pool, are scoped by ``with``, only.

    Two checks across the whole library:

    * **construction** — ``threading.Lock()`` / ``Condition()`` / … may
      only be built inside :mod:`repro.exec.pool`; everything else calls
      :func:`repro.exec.pool.make_lock` so each primitive's provenance is
      auditable in one file;
    * **acquisition** — no bare ``.acquire()`` / ``.release()`` calls
      anywhere: un-scoped acquisition leaks the lock on any exception
      path between the two calls. ``with lock:`` is the only sanctioned
      form (``Condition.wait``/``notify`` are fine — they require the
      ``with`` block already).
    """

    id = "RP010"
    title = "unsanctioned lock construction or bare acquire/release"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: LintContext) -> Iterator[LintFinding]:
        in_lock_home = ctx.module == _LOCK_HOME
        # Names bound by `from threading import X` (so a bare `Lock()`
        # call can be attributed to the threading module).
        from_threading: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "threading":
                for alias in node.names:
                    from_threading.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute):
                if f.attr in ("acquire", "release"):
                    yield self.finding(
                        ctx,
                        node,
                        f"bare '.{f.attr}()' — acquisition must be "
                        "'with'-statement scoped (a raised exception "
                        "between acquire and release leaks the lock)",
                    )
                    continue
                if (
                    not in_lock_home
                    and f.attr in _SYNC_PRIMITIVES
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "threading"
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"threading.{f.attr}() constructed outside "
                        f"{_LOCK_HOME} — obtain locks via "
                        "repro.exec.pool.make_lock()",
                    )
            elif (
                isinstance(f, ast.Name)
                and not in_lock_home
                and f.id in _SYNC_PRIMITIVES
                and f.id in from_threading
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{f.id}() (from threading) constructed outside "
                    f"{_LOCK_HOME} — obtain locks via "
                    "repro.exec.pool.make_lock()",
                )


# -- engine ------------------------------------------------------------------

DEFAULT_RULES: tuple[type[LintRule], ...] = (
    NoSwallowedExceptRule,
    NoIndexMutationRule,
    KernelDtypeRule,
    NoPrintRule,
    InitNeedsAllRule,
    UnusedImportRule,
    NoDirectPerfCounterRule,
    NoRawThreadingRule,
    SharedMutableStateRule,
    LockDisciplineRule,
)


def module_name_for(path: Path) -> str:
    """Dotted module path inferred from a file location.

    Uses the last ``repro`` component in the path as the package root;
    files outside a ``repro`` tree get "" (repo-scoped rules skip them —
    pass ``module=`` to :func:`lint_source` to override).
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return ""


def _suppressed(finding: LintFinding, lines: Sequence[str]) -> bool:
    if not (1 <= finding.line <= len(lines)):
        return False
    m = _NOQA_RE.search(lines[finding.line - 1])
    if not m:
        return False
    ids = m.group("ids")
    if ids is None:
        return True  # bare "# repro: noqa" suppresses every rule
    # Empty or malformed brackets suppress nothing: only tokens that look
    # like rule ids count, so "noqa[]" or "noqa[bogus]" cannot silently
    # blanket-suppress a line.
    wanted = {
        tok.upper()
        for tok in _NOQA_SPLIT_RE.split(ids)
        if re.fullmatch(r"RP\d{3}", tok, re.IGNORECASE)
    }
    return finding.rule.upper() in wanted


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Iterable[type[LintRule]] | None = None,
) -> list[LintFinding]:
    """Lint one source string; returns unsuppressed findings in line order."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc}") from exc
    lines = tuple(source.splitlines())
    ctx = LintContext(
        path=path,
        module=module if module is not None else module_name_for(Path(path)),
        tree=tree,
        lines=lines,
    )
    findings: list[LintFinding] = []
    for rule_cls in rules or DEFAULT_RULES:
        rule = rule_cls()
        if not rule.applies(ctx):
            continue
        for f in rule.check(ctx):
            if not _suppressed(f, lines):
                findings.append(f)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str | Path,
    module: str | None = None,
    rules: Iterable[type[LintRule]] | None = None,
) -> list[LintFinding]:
    """Lint one file (see :func:`lint_source`)."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {p}: {exc}") from exc
    return lint_source(source, path=str(p), module=module, rules=rules)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[type[LintRule]] | None = None,
) -> list[LintFinding]:
    """Lint files and directory trees (``*.py``, sorted, deduplicated)."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    seen: set[Path] = set()
    findings: list[LintFinding] = []
    for f in files:
        key = f.resolve()
        if key in seen:
            continue
        seen.add(key)
        findings.extend(lint_file(f, rules=rules))
    return findings
