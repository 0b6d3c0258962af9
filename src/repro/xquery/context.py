"""Static and dynamic context for query evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import STANDOFF_OPTION_NAMES, ExecOptions, \
    StandoffConfig
from repro.core.region_index import RegionIndex
from repro.errors import XQueryDynamicError, XQueryStaticError
from repro.xmldb.dom import Node
from repro.xmldb.store import DocumentStore, extract_regions
from repro.xquery import ast
from repro.xquery.lexer import Lexer  # noqa: F401  (re-export convenience)

#: An item sequence: the uniform runtime value of every expression.
Sequence = list


@dataclass
class StaticContext:
    """Per-query immutable state derived from the prolog."""

    options: dict[str, str] = field(default_factory=dict)
    namespaces: dict[str, str] = field(default_factory=dict)
    functions: dict[tuple[str, int], ast.FunctionDecl] = field(
        default_factory=dict)
    standoff: StandoffConfig = field(default_factory=StandoffConfig)

    @classmethod
    def from_prolog(cls, prolog: ast.Prolog,
                    option_defaults: dict[str, str] | None = None
                    ) -> "StaticContext":
        """Build the static context for a compiled module.

        *option_defaults* are session-level ``declare option`` values
        (a serving session's standoff representation, say) applied
        beneath the query's own prolog — the prolog always wins.
        Because they change what a query text compiles to, they are
        part of the plan-cache key: see
        :meth:`repro.xquery.engine.Database._static_fingerprint`.
        """
        options = dict(option_defaults) if option_defaults else {}
        options.update(prolog.options)
        unknown = [name for name in options
                   if name.startswith("standoff-")
                   and name not in STANDOFF_OPTION_NAMES]
        if unknown:
            raise XQueryStaticError(
                f"unknown standoff option(s): {', '.join(sorted(unknown))}")
        standoff_options = {
            name: value for name, value in options.items()
            if name in STANDOFF_OPTION_NAMES}
        static = cls(
            options=options,
            namespaces=dict(prolog.namespaces),
            standoff=StandoffConfig.from_options(standoff_options),
        )
        for decl in prolog.functions:
            key = (_strip_prefix(decl.name), len(decl.params))
            if key in static.functions:
                raise XQueryStaticError(
                    f"function {decl.name}#{len(decl.params)} "
                    "declared twice", code="err:XQST0034")
            static.functions[key] = decl
        return static


def _strip_prefix(name: str) -> str:
    """Function lookup ignores the namespace prefix (single-namespace
    subset: ``fn:count`` == ``count``, ``standoff:select-narrow`` ==
    ``select-narrow``)."""
    return name.rpartition(":")[2]


class Focus:
    """The XPath focus: context item, position and size."""

    __slots__ = ("item", "position", "size")

    def __init__(self, item, position: int = 1, size: int = 1):
        self.item = item
        self.position = position
        self.size = size


class DynamicContext:
    """Mutable evaluation state threaded through the evaluators."""

    def __init__(self, store: DocumentStore,
                 static: StaticContext | None = None,
                 options: ExecOptions | None = None,
                 blobs=None):
        from repro.xmldb.blob import BlobStore

        self.store = store
        self.blobs = blobs if blobs is not None else BlobStore()
        self.static = static or StaticContext()
        #: the query's execution settings, shared by every scope
        self.options = options if options is not None else ExecOptions()
        self.variables: dict[str, Sequence] = {}
        self.focus: Optional[Focus] = None
        self.globals: dict[str, Sequence] = {}
        # region indexes for fragments that are not stored documents
        # (constructed nodes), keyed by id(root node); every entry is a
        # (root, value) pair — the strong root reference pins the
        # fragment, so a GC'd fragment's recycled address can never
        # alias a live entry, and lookups verify identity
        self._transient_indexes: dict[int, tuple[Node, RegionIndex]] = {}
        # shredded columns for constructed fragments, same keying: one
        # shred per fragment per query keeps staircase axis steps over
        # constructed content on the kernel path
        self._transient_shreds: dict = {}
        #: observability hook: number of standoff join invocations
        #: (a shared mutable cell so child scopes count into the root)
        self._join_counter = [0]

    # -- scoping -------------------------------------------------------------

    def child_scope(self) -> "DynamicContext":
        ctx = DynamicContext.__new__(DynamicContext)
        ctx.store = self.store
        ctx.blobs = self.blobs
        ctx.static = self.static
        ctx.options = self.options
        ctx.variables = dict(self.variables)
        ctx.focus = self.focus
        ctx.globals = self.globals
        ctx._transient_indexes = self._transient_indexes
        ctx._transient_shreds = self._transient_shreds
        ctx._join_counter = self._join_counter
        return ctx

    def function_scope(self, bindings: dict[str, Sequence]
                       ) -> "DynamicContext":
        """A scope seeing only globals + parameters (XQuery functions)."""
        ctx = self.child_scope()
        ctx.variables = dict(self.globals)
        ctx.variables.update(bindings)
        ctx.focus = None
        return ctx

    def lookup(self, name: str) -> Sequence:
        try:
            return self.variables[name]
        except KeyError:
            raise XQueryDynamicError(
                f"undefined variable ${name}", code="err:XPDY0002"
            ) from None

    @property
    def standoff_join_calls(self) -> int:
        """Number of StandOff join invocations in this query so far."""
        return self._join_counter[0]

    def count_standoff_join(self) -> None:
        self._join_counter[0] += 1

    def require_focus(self) -> Focus:
        if self.focus is None:
            raise XQueryDynamicError(
                "the context item is undefined here", code="err:XPDY0002")
        return self.focus

    # -- standoff support -----------------------------------------------------

    @property
    def standoff_config(self) -> StandoffConfig:
        return self.static.standoff

    def region_index_for(self, root: Node) -> RegionIndex:
        """The region index of the fragment rooted at *root*.

        Stored documents use the store's cached index; constructed
        fragments get a transient index built (and cached) on demand.
        """
        from repro.xmldb.dom import Document

        if isinstance(root, Document):
            stored = self.store.by_document(root)
            if stored is not None:
                return stored.region_index(self.standoff_config)
        key = id(root)
        entry = self._transient_indexes.get(key)
        if entry is None or entry[0] is not root:
            root_doc = _TransientFragment(root)
            index = RegionIndex.build(
                extract_regions(root_doc, self.standoff_config))
            self._transient_indexes[key] = (root, index)
            return index
        return entry[1]

    def shredded_for(self, root: Node):
        """The shredded columns of the fragment rooted at *root*.

        Stored documents use the store's cached shred; constructed
        fragments shred on demand — the substrate that lets the bulk
        evaluator run staircase axis steps over constructed content
        through the batched kernels instead of the DOM walk.  The shred
        is cached per query and per fragment (stable ``id(shredded)``
        within one query, with a strong root reference per entry).
        """
        from repro.xmldb.dom import Document
        from repro.xmldb.shred import shred_fragment

        if isinstance(root, Document):
            stored = self.store.by_document(root)
            if stored is not None:
                return stored.shredded
        key = id(root)
        entry = self._transient_shreds.get(key)
        if entry is None or entry[0] is not root:
            shredded = shred_fragment(root)
            self._transient_shreds[key] = (root, shredded)
            return shredded
        return entry[1]


class _TransientFragment:
    """Adapter giving a bare subtree the Document-ish API that
    :func:`~repro.xmldb.store.extract_regions` needs."""

    def __init__(self, root: Node):
        self._root = root

    def renumber(self) -> None:
        from repro.xmldb.dom import Document, renumber_fragment

        if isinstance(self._root, Document):
            self._root.renumber()
            return
        # Orphan subtree: the shared local numbering, so pre ranks are
        # stable and agree with constructor output and shred-on-demand.
        renumber_fragment(self._root)

    def descendants(self):
        return self._root.descendants_or_self()
