"""The user-facing engine: a tiny XML database with StandOff XQuery.

:class:`Database` owns a document store and runs queries under one of the
paper's three evaluation strategies (§4.6):

``udf``          StandOff steps are evaluated by the quadratic
                 nested-loop join — the cost model of the XQuery
                 user-defined functions of Figures 2/3.
``basic``        StandOff steps use the Basic StandOff MergeJoin; inside
                 a for-loop the join runs once per iteration.
``ll``           loop-lifted execution: the whole query is evaluated in
                 the ``iter|pos|item`` model and a StandOff step nested
                 in a for-loop becomes a *single* Loop-Lifted StandOff
                 MergeJoin call.

Example::

    db = Database()
    db.add_document("video.xml", xml_text)
    shots = db.query('doc("video.xml")//music[@artist="U2"]'
                     '/select-wide::shot')
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import NamedTuple

from repro.config import DEFAULT_PLAN_CACHE_SIZE, ExecOptions
from repro.exec import lockcheck
from repro.errors import UnsupportedFeatureError, XQueryTypeError
from repro.xmldb.dom import Attr, Document, Element, Node
from repro.xmldb.store import DocumentStore, StoredDocument
from repro.xquery import ast
from repro.xquery.context import DynamicContext, Focus, StaticContext
from repro.xquery.parser import parse
from repro.xquery.rewrite import rewrite
from repro.xquery.values import atomic_to_string


class QueryResult(list):
    """An item sequence with serialization helpers."""

    def serialize(self, indent: bool = False, sep: str = "\n") -> str:
        """Serialize the sequence: nodes as XML, atomics as strings."""
        parts = []
        for item in self:
            if isinstance(item, Node):
                parts.append(item.serialize(indent=indent))
            else:
                parts.append(atomic_to_string(item))
        return sep.join(parts)

    def atomized(self) -> list:
        from repro.xquery.values import atomize

        return atomize(self)


class Plan(NamedTuple):
    """One compiled query text."""

    #: The module as parsed — what ``basic`` and ``udf`` evaluate, so
    #: the differential oracle never sees the rewrite.
    module: ast.Module
    static: StaticContext
    #: :func:`repro.xquery.rewrite.rewrite` of *module* — what ``ll``
    #: evaluates.
    rewritten: ast.Module


class PlanCache:
    """Cross-query LRU of compiled plans (:class:`Plan`), keyed on
    (query text, static-context fingerprint).

    The parser and the rewrite are pure and the evaluators never mutate
    the AST or the static context, so a compiled plan is reusable
    verbatim — parse once, evaluate many.  ``max_entries == 0`` (env
    ``REPRO_PLAN_CACHE=0``) disables caching; only failed compilations
    are never cached (static errors re-raise on re-parse).
    """

    def __init__(self, max_entries: int = DEFAULT_PLAN_CACHE_SIZE):
        self._lock = lockcheck.new_lock("PlanCache._lock")
        self._entries: OrderedDict = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, text: str, fingerprint=()):
        if not self.enabled:
            return None
        key = (text, fingerprint)
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, text: str, plan, fingerprint=()) -> None:
        if not self.enabled:
            return
        key = (text, fingerprint)
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class Database:
    """An in-memory XML database with the StandOff XQuery extensions."""

    def __init__(self, *, plan_cache_size: int | None = None,
                 storage_backend: str | None = None,
                 session_options: dict[str, str] | None = None) -> None:
        from repro.xmldb.blob import BlobStore

        self.store = DocumentStore(storage_backend=storage_backend)
        self.blobs = BlobStore()
        #: Engine-level ``declare option`` defaults applied beneath
        #: every query's prolog (the prolog wins).  The serving layer
        #: uses the per-call variant (``query(session_options=...)``)
        #: so one shared engine can host sessions with different
        #: static configurations.
        self.session_options = dict(session_options or {})
        #: Compiled-plan LRU (``plan_cache_size=0`` disables; default
        #: from ``REPRO_PLAN_CACHE``).
        self.plan_cache = PlanCache(
            DEFAULT_PLAN_CACHE_SIZE if plan_cache_size is None
            else plan_cache_size)

    def _static_fingerprint(self,
                            session_options: dict[str, str] | None = None
                            ) -> tuple:
        """The plan-cache key component beyond the query text.

        Static analysis is mostly derived from the query text itself;
        the one engine-level input is the session ``declare option``
        defaults (engine-wide :attr:`session_options`, overlaid by the
        per-call *session_options* a serving session supplies), which
        change what a given text compiles to — so they are folded into
        the fingerprint and two sessions with different static
        contexts can never collide in the shared plan cache.  Any
        future static configuration (default collations, module
        resolution) must be folded in here before it can influence
        compilation.
        """
        merged = self._merged_options(session_options)
        if not merged:
            return ("static-v2",)
        return ("static-v2", tuple(sorted(merged.items())))

    def _merged_options(self, session_options: dict[str, str] | None
                        ) -> dict[str, str]:
        if not session_options:
            return self.session_options
        merged = dict(self.session_options)
        merged.update(session_options)
        return merged

    def compile(self, text: str, *,
                session_options: dict[str, str] | None = None) -> Plan:
        """Parse and rewrite *text* (or fetch it from the plan cache).

        Returns the :class:`Plan` without evaluating it — the
        admission-control estimator in :mod:`repro.serve` uses this to
        inspect a query's shape before running it, and the work is
        never wasted: the compiled plan is cached, so the subsequent
        :meth:`query` call hits.
        """
        fingerprint = self._static_fingerprint(session_options)
        plan = self.plan_cache.get(text, fingerprint)
        if plan is None:
            module = parse(text)
            static = StaticContext.from_prolog(
                module.prolog,
                option_defaults=self._merged_options(session_options))
            plan = Plan(module, static, rewrite(module))
            self.plan_cache.put(text, plan, fingerprint)
        return plan

    # -- document management ---------------------------------------------

    def add_document(self, uri: str, xml: str, *,
                     keep_whitespace_text: bool = False) -> StoredDocument:
        """Parse and register a document under *uri*."""
        return self.store.add(uri, xml,
                              keep_whitespace_text=keep_whitespace_text)

    def remove_document(self, uri: str) -> None:
        self.store.remove(uri)

    def add_blob(self, uri: str, content) -> None:
        """Register a BLOB (str or bytes) for blob-content/-substring."""
        self.blobs.add(uri, content)

    def add_document_standoff(self, uri: str, xml: str, *,
                              blob_uri: str | None = None,
                              permute: bool = False) -> StoredDocument:
        """Convert an *inline* XML document to stand-off form and store it.

        The text content moves to a BLOB (registered under *blob_uri*,
        default ``uri + ".blob"``); every element receives a
        ``start``/``end`` region into it (see
        :func:`repro.xmark.standoffize.standoffize`).  With
        ``permute=False`` (default) the element structure is preserved,
        so ``select-narrow`` coincides with ``descendant`` — the
        conversion is purely representational.
        """
        from repro.xmark.standoffize import standoffize
        from repro.xmldb.parser import parse_document

        source = parse_document(xml, uri=uri)
        bundle = standoffize(source, permute=permute)
        stored = self.store.add(uri, bundle.document)
        self.blobs.add(blob_uri or uri + ".blob", bundle.blob)
        return stored

    def document(self, uri: str) -> StoredDocument:
        return self.store.get(uri)

    def __contains__(self, uri: str) -> bool:
        return uri in self.store

    # -- querying -----------------------------------------------------------

    def query(self, text: str, *, options: ExecOptions | None = None,
              context_uri: str | None = None,
              variables: dict | None = None,
              session_options: dict[str, str] | None = None,
              **knobs) -> QueryResult:
        """Parse and evaluate a query.

        :param text: the XQuery text (prolog + body).
        :param options: the execution settings (default
            ``ExecOptions()``: ``strategy="basic"``).
        :param knobs: :class:`~repro.config.ExecOptions` fields
            (``strategy="ll"``, ``kernel=...``, ``workers=...``)
            overriding *options* for this call.
        :param context_uri: optional document whose root becomes the
            initial context item (so relative paths like ``//a`` work
            without ``doc(...)``).
        :param variables: optional external variable bindings
            (name -> item or sequence).
        :param session_options: per-session ``declare option``
            defaults overlaid on the engine-level
            :attr:`session_options` (the query prolog overrides both);
            part of the plan-cache key, so sessions with different
            static contexts share the cache without collisions.
        """
        if options is None:
            options = ExecOptions(**knobs)
        elif knobs:
            options = replace(options, **knobs)
        plan = self.compile(text, session_options=session_options)
        ctx = DynamicContext(self.store, plan.static, options,
                             blobs=self.blobs)
        if variables:
            for name, value in variables.items():
                ctx.variables[name] = (list(value)
                                       if isinstance(value, (list, tuple))
                                       else [value])
                ctx.globals[name] = ctx.variables[name]
        if context_uri is not None:
            root = self.store.get(context_uri).document
            ctx.focus = Focus(root, 1, 1)

        if options.strategy == "ll":
            from repro.xquery.bulk import evaluate_module_bulk

            return QueryResult(evaluate_module_bulk(plan.rewritten, ctx))
        from repro.xquery.evaluator import evaluate_module

        return QueryResult(evaluate_module(plan.module, ctx))

    # -- updates ------------------------------------------------------------

    def _update_targets(self, query: str) -> QueryResult:
        """The nodes an update addresses, found the way a read finds
        them (``ll``); a query ``ll`` refuses — one that declares
        functions — takes the DOM walk.  Both return the stored
        document's own :class:`Node` objects."""
        try:
            return self.query(query, strategy="ll")
        except UnsupportedFeatureError:
            return self.query(query, strategy="basic")

    def insert_nodes(self, uri: str, parent_query: str,
                     xml_fragment: str) -> int:
        """Insert parsed *xml_fragment* under every node selected by
        *parent_query* (which must select elements of document *uri*).

        Returns the number of insertion points.  All derived structures
        of the document (shredded columns, region indexes) and the
        collection-global index are invalidated — the per-document vs
        global maintenance trade-off of §3.3 (ii).
        """
        from repro.xmldb.parser import parse_fragment

        stored = self.store.get(uri)
        parents = self._update_targets(parent_query)
        for parent in parents:
            if not isinstance(parent, Element) \
                    or parent.document is not stored.document:
                raise XQueryTypeError(
                    "insert_nodes: parent query must select elements "
                    f"of {uri!r}")
        for parent in parents:
            for node in parse_fragment(xml_fragment):
                parent.append(node)
        if parents:
            self.store.touch(uri)
        return len(parents)

    def delete_nodes(self, uri: str, query: str) -> int:
        """Delete every node selected by *query* from document *uri*.

        Returns the number of deleted nodes; derived structures are
        invalidated as for :meth:`insert_nodes`.
        """
        stored = self.store.get(uri)
        victims = self._update_targets(query)
        for node in victims:
            if not isinstance(node, Node) or isinstance(node, Document) \
                    or node.document is not stored.document:
                raise XQueryTypeError(
                    "delete_nodes: query must select non-document nodes "
                    f"of {uri!r}")
        deleted = 0
        for node in victims:
            parent = node.parent
            if parent is None:
                continue
            if isinstance(node, Attr):
                parent.attributes.remove(node)
            else:
                parent.children.remove(node)
            node.parent = None
            deleted += 1
        if deleted:
            self.store.touch(uri)
        return deleted

    def explain(self, text: str) -> str:
        """Render the plan ``strategy="ll"`` runs for *text*: the
        rewritten module, every path one step per line, each axis step
        with the route it takes (see :mod:`repro.xquery.explain`)."""
        from repro.xquery.explain import render_plan

        return render_plan(self.compile(text).rewritten)
