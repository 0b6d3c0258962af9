"""Tests for shredding, the document store and region extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.config import StandoffConfig
from repro.core import Area, Region
from repro.core.region_index import RegionTable
from repro.errors import RegionError, ReproError
from repro.xmldb import DocumentStore, parse_document, shred
from repro.xmldb.dom import Comment, Document, Element, Text
from repro.xmldb.shred import shred_fragment
from repro.xmldb.store import element_regions, extract_regions

ANNOTATED = """
<sample>
  <video>
    <shot id="Intro" start="0" end="8"/>
    <shot id="Interview" start="8" end="64"/>
    <shot id="Outro" start="64" end="94"/>
  </video>
  <audio>
    <music artist="U2" start="0" end="31"/>
    <music artist="Bach" start="52" end="94"/>
  </audio>
</sample>
"""


class TestShred:
    def test_columns_aligned(self):
        doc = parse_document("<a x='1'><b>t</b></a>")
        sh = shred(doc)
        n = doc.node_count
        assert len(sh.pre) == len(sh.size) == len(sh.level) == n
        assert sh.pre.tolist() == list(range(n))

    def test_kind_and_names(self):
        doc = parse_document("<a x='1'><b>t</b><!--c--></a>")
        sh = shred(doc)
        assert sh.name_of(doc.root_element.pre) == "a"
        b = doc.root_element.find("b")
        assert sh.name_of(b.pre) == "b"
        assert sh.value_of(b.pre + 1) == "t"

    def test_parent_column(self):
        doc = parse_document("<a><b><c/></b></a>")
        sh = shred(doc)
        c = doc.root_element.find("b").find("c")
        assert sh.parent[c.pre] == doc.root_element.find("b").pre
        assert sh.parent[0] == -1

    def test_element_index(self):
        doc = parse_document("<a x='1'><b/><c><b/></c></a>")
        sh = shred(doc)
        bs = sh.elements_named("b")
        assert len(bs) == 2
        assert all(sh.name_of(p) == "b" for p in bs.tolist())
        assert sh.elements_named("zzz").tolist() == []
        assert sh.elements_named("x").tolist() == []    # an attribute

    def test_post_order(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        sh = shred(doc)
        post = sh.post()
        a = doc.root_element
        d = a.find("d")
        # post(a) is the largest in its subtree
        assert post[a.pre] == a.pre + a.size
        assert post[d.pre] == d.pre


def _entries(table) -> list[tuple]:
    """A region table's rows as ``(id, start, end)`` triples."""
    return [(node_id, start, end)
            for start, end, node_id in table.iter_rows()]


class TestRegionExtraction:
    def test_attribute_form_default(self):
        doc = parse_document(ANNOTATED)
        entries = _entries(extract_regions(shred(doc)))
        assert len(entries) == 5
        starts = sorted(start for _pre, start, _end in entries)
        assert starts == [0, 0, 8, 52, 64]

    def test_custom_attribute_names(self):
        doc = parse_document('<a><x b="5" e="9"/></a>')
        config = StandoffConfig(start_name="b", end_name="e")
        entries = _entries(extract_regions(shred(doc), config))
        assert len(entries) == 1
        assert entries[0][1:] == (5, 9)

    def test_element_form(self):
        doc = parse_document(
            "<a><f><region><start>1</start><end>2</end></region>"
            "<region><start>10</start><end>20</end></region>bar</f></a>")
        config = StandoffConfig(region_name="region")
        entries = _entries(extract_regions(shred(doc), config))
        assert len(entries) == 2
        pres = {pre for pre, _s, _e in entries}
        assert len(pres) == 1  # both regions belong to the same element

    def test_element_form_requires_region_option(self):
        doc = parse_document(
            "<a><f><region><start>1</start><end>2</end></region></f></a>")
        assert _entries(extract_regions(shred(doc))) == []

    def test_half_region_attribute_raises(self):
        doc = parse_document('<a><x start="5"/></a>')
        with pytest.raises(RegionError):
            extract_regions(shred(doc))

    def test_inverted_region_raises(self):
        doc = parse_document('<a><x start="9" end="5"/></a>')
        with pytest.raises(RegionError):
            extract_regions(shred(doc))

    def test_unparseable_position_raises(self):
        doc = parse_document('<a><x start="five" end="9"/></a>')
        with pytest.raises(RegionError):
            extract_regions(shred(doc))

    def test_double_positions(self):
        doc = parse_document('<a><x start="0.5" end="2.75"/></a>')
        config = StandoffConfig(position_type="xs:double")
        ((_pre, start, end),) = _entries(
            extract_regions(shred(doc), config))
        assert (start, end) == (0.5, 2.75)

    def test_nested_annotations_not_restricted(self):
        # A descendant's region need not be contained in the ancestor's.
        doc = parse_document(
            '<a><x start="10" end="20"><y start="0" end="100"/></x></a>')
        assert len(_entries(extract_regions(shred(doc)))) == 2


# ----------------------------------------------------------------------
# the column pass against the DOM walk it replaced
# ----------------------------------------------------------------------

def _walk_regions(nodes, config: StandoffConfig) -> RegionTable:
    """The region table of the area-annotation elements among *nodes*,
    read by walking the DOM: the oracle :func:`extract_regions` must
    agree with, rows and first error alike."""
    rows = []

    def check(start, end, node):
        if start > end:
            raise RegionError(
                f"element <{node.tag}> (pre {node.pre}) has start "
                f"{start!r} > end {end!r}")
        rows.append((start, end, node.pre))

    for node in nodes:
        if not isinstance(node, Element):
            continue
        if config.uses_region_elements:
            for region_el in node.elements(config.region_name):
                start_el = region_el.find(config.start_name)
                end_el = region_el.find(config.end_name)
                if start_el is None and end_el is None:
                    continue
                if start_el is None or end_el is None:
                    raise RegionError(
                        f"<{config.region_name}> under <{node.tag}> has "
                        f"only one of <{config.start_name}>/"
                        f"<{config.end_name}>")
                check(config.parse_position(start_el.string_value()),
                      config.parse_position(end_el.string_value()), node)
        else:
            raw_start = node.get_attribute(config.start_name)
            raw_end = node.get_attribute(config.end_name)
            if raw_start is None and raw_end is None:
                continue
            if raw_start is None or raw_end is None:
                raise RegionError(
                    f"element <{node.tag}> (pre {node.pre}) has only one "
                    f"of @{config.start_name}/@{config.end_name}")
            check(config.parse_position(raw_start),
                  config.parse_position(raw_end), node)
    return RegionTable.from_rows(rows)


CONFIGS = [
    StandoffConfig(),
    StandoffConfig(position_type="xs:double"),
    StandoffConfig(start_name="x:start", end_name="x:end"),
    StandoffConfig(region_name="region"),
    StandoffConfig(region_name="region", position_type="xs:double"),
]


@st.composite
def areas(draw, valid: bool) -> list[str]:
    """A start and an end text, whitespace-padded at times: ordered
    integers or, unless *valid*, an inverted, fractional or unparseable
    pair too."""
    start = draw(st.integers(0, 60))
    texts = [str(start), str(start + draw(st.integers(0, 30)))]
    if not valid:
        texts = draw(st.sampled_from([texts, texts[::-1], ["2.5", "1e1"],
                                      ["five", "3"], ["", "4"]]))
    pad = draw(st.sampled_from(["", "", " ", "\t\n"]))
    return [pad + text + pad for text in texts]


@st.composite
def positions(draw, name: str, text: str) -> Element:
    """A ``<start>``/``<end>``-like element whose string value is
    *text*, cut in two: text, a nested element's text, a comment
    between."""
    element = Element(name)
    cut = draw(st.integers(0, len(text)))
    for piece in (text[:cut], text[cut:]):
        how = draw(st.sampled_from(["text", "nested", "comment"]))
        if how == "comment":
            element.append(Comment("9"))
        if piece and how == "nested":
            element.append(Element("b")).append(Text(piece))
        elif piece:
            element.append(Text(piece))
    return element


@st.composite
def regions(draw, valid: bool) -> Element:
    """A ``<region>`` element; a second ``<start>`` or ``<end>`` holds
    another value, and unless *valid* a half may be missing."""
    names = [["start", "end"], ["end", "start"], ["start", "start", "end"],
             ["start", "end", "end"], ["x:start", "start", "end"], []]
    if not valid:
        names += [["start"], ["end"], ["x:start", "end"]]
    region = Element("region")
    texts = dict(zip(("start", "end"), draw(areas(valid))))
    for name in draw(st.sampled_from(names)):
        text = texts.pop(name, None) or str(draw(st.integers(0, 99)))
        region.append(draw(positions(name, text)))
    return region


@st.composite
def annotated(draw, valid: bool, depth: int = 0) -> Element:
    """An element subtree with attribute- and element-form areas, the
    attribute names prefixed (``x:start``) and not; unless *valid*,
    with half, inverted and unparseable ones."""
    element = Element(draw(st.sampled_from(
        ["a", "b", "region", "start", "end"])))
    pairs = [(), (), ("start", "end"), ("x:start", "x:end"),
             ("start", "end", "x:start", "x:end")]
    if not valid:
        pairs += [("start",), ("x:end", "start"),
                  ("start", "end", "x:start")]
    texts = draw(areas(valid)) + draw(areas(valid))
    for name, text in zip(draw(st.sampled_from(pairs)), texts):
        element.set_attribute(name, text)
    if depth < 3:
        for kind in draw(st.lists(st.sampled_from(
                ["element", "element", "region", "region", "text",
                 "comment"]), min_size=int(depth == 0), max_size=4)):
            if kind == "element":
                element.append(draw(annotated(valid, depth + 1)))
            elif kind == "region":
                element.append(draw(regions(valid)))
            elif kind == "text":
                element.append(Text(draw(st.sampled_from(["1", " "]))))
            else:
                element.append(Comment("c"))
    return element


def _shredded(root: Element, in_document: bool):
    """A numbered document around *root*, or the constructed fragment
    *root* itself, and its shred."""
    if not in_document:
        return root, shred_fragment(root)
    document = Document("d.xml")
    document.append(root)
    document.renumber()
    return document, shred(document)


def _same_outcome(got, oracle) -> None:
    """*got()* returns the table *oracle()* returns, or raises the
    :class:`RegionError` it raises."""
    try:
        want = oracle()
    except RegionError as exc:
        with pytest.raises(RegionError) as info:
            got()
        assert str(info.value) == str(exc)
    else:
        table = got()
        assert table == want
        assert (table.starts.dtype, table.ends.dtype) == \
            (want.starts.dtype, want.ends.dtype)


class TestRegionExtractionDifferential:
    @settings(max_examples=300, deadline=None)
    @given(root=st.booleans().flatmap(annotated),
           in_document=st.booleans(), config=st.sampled_from(CONFIGS))
    def test_columns_equal_the_dom_walk(self, root, in_document, config):
        top, shredded = _shredded(root, in_document)
        _same_outcome(
            lambda: extract_regions(shredded, config),
            lambda: _walk_regions(top.descendants_or_self(), config))

    @settings(max_examples=150, deadline=None)
    @given(root=st.booleans().flatmap(annotated),
           in_document=st.booleans(), config=st.sampled_from(CONFIGS),
           pres=st.sets(st.integers(0, 60), max_size=12))
    def test_restricted_to_elements(self, root, in_document, config, pres):
        top, shredded = _shredded(root, in_document)
        _same_outcome(
            lambda: element_regions(shredded, config,
                                    np.asarray(sorted(pres), dtype=np.int64)),
            lambda: _walk_regions([node for node in top.descendants_or_self()
                                   if node.pre in pres], config))


class TestDocumentStore:
    def test_add_and_get(self):
        store = DocumentStore()
        stored = store.add("doc.xml", "<a/>")
        assert store.get("doc.xml") is stored
        assert "doc.xml" in store
        assert len(store) == 1

    def test_duplicate_uri_rejected(self):
        store = DocumentStore()
        store.add("doc.xml", "<a/>")
        with pytest.raises(ReproError):
            store.add("doc.xml", "<b/>")

    def test_missing_uri(self):
        store = DocumentStore()
        with pytest.raises(ReproError):
            store.get("missing.xml")

    def test_doc_ids_distinct(self):
        store = DocumentStore()
        d1 = store.add("a.xml", "<a/>")
        d2 = store.add("b.xml", "<b/>")
        assert d1.doc_id != d2.doc_id
        assert store.by_id(d2.doc_id) is d2

    def test_remove(self):
        store = DocumentStore()
        store.add("a.xml", "<a/>")
        store.remove("a.xml")
        assert "a.xml" not in store
        with pytest.raises(ReproError):
            store.remove("a.xml")

    def test_region_index_cached_per_config(self):
        store = DocumentStore()
        stored = store.add("doc.xml", ANNOTATED)
        idx1 = stored.region_index()
        idx2 = stored.region_index()
        assert idx1 is idx2
        other = stored.region_index(StandoffConfig(start_name="s1",
                                                   end_name="e1"))
        assert other is not idx1
        assert len(other) == 0

    def test_area_of_node(self):
        store = DocumentStore()
        stored = store.add("doc.xml", ANNOTATED)
        doc = stored.document
        intro = next(el for el in doc.descendants()
                     if getattr(el, "tag", None) == "shot")
        area = stored.area_of_node(intro.pre)
        assert area == Area([Region(0, 8)])
        assert stored.area_of_node(doc.root_element.pre) is None


class TestRenumbers:
    """The DOM is numbered by what changes it (a store's add of a DOM,
    invalidate, an update), never by parsing — the columns are built
    numbered and the DOM takes their numbering — nor by a shred or an
    extraction."""

    XML = '<a><b start="0" end="4">x</b><c start="5" end="9"/></a>'

    @pytest.fixture()
    def renumbers(self, monkeypatch):
        calls = []
        renumber = Document.renumber

        def spy(document):
            calls.append(document)
            return renumber(document)

        monkeypatch.setattr(Document, "renumber", spy)
        return calls

    def test_cold_standoff_document(self, renumbers):
        stored = Database().add_document_standoff(
            "s.xml", "<a><b>x<c>y</c></b><b>z</b></a>", permute=True)
        stored.shredded
        stored.region_index()
        # standoffize's permutation pass, add
        assert len(renumbers) == 2

    def test_plain_document(self, renumbers):
        stored = Database().add_document("p.xml", self.XML)
        stored.shredded
        stored.document
        assert len(renumbers) == 0

    def test_touch(self, renumbers):
        db = Database()
        db.add_document("p.xml", self.XML)
        del renumbers[:]
        db.store.touch("p.xml").shredded
        assert len(renumbers) == 1

    def test_invalidate(self, renumbers):
        stored = Database().add_document("p.xml", self.XML)
        stored.region_index()
        del renumbers[:]
        stored.invalidate()
        stored.shredded
        assert len(stored.region_index()) == 2
        assert len(renumbers) == 1
