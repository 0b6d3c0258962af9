"""Tests for shredding, the document store and region extraction."""

import numpy as np
import pytest

from repro.config import StandoffConfig
from repro.core import Area, Region
from repro.errors import RegionError, ReproError
from repro.xmldb import DocumentStore, parse_document, shred
from repro.xmldb.store import extract_regions

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


class TestRegionExtraction:
    def test_attribute_form_default(self):
        doc = parse_document(ANNOTATED)
        entries = list(extract_regions(doc))
        assert len(entries) == 5
        starts = sorted(start for _pre, start, _end in entries)
        assert starts == [0, 0, 8, 52, 64]

    def test_custom_attribute_names(self):
        doc = parse_document('<a><x b="5" e="9"/></a>')
        config = StandoffConfig(start_name="b", end_name="e")
        entries = list(extract_regions(doc, config))
        assert len(entries) == 1
        assert entries[0][1:] == (5, 9)

    def test_element_form(self):
        doc = parse_document(
            "<a><f><region><start>1</start><end>2</end></region>"
            "<region><start>10</start><end>20</end></region>bar</f></a>")
        config = StandoffConfig(region_name="region")
        entries = list(extract_regions(doc, config))
        assert len(entries) == 2
        pres = {pre for pre, _s, _e in entries}
        assert len(pres) == 1  # both regions belong to the same element

    def test_element_form_requires_region_option(self):
        doc = parse_document(
            "<a><f><region><start>1</start><end>2</end></region></f></a>")
        assert list(extract_regions(doc)) == []

    def test_half_region_attribute_raises(self):
        doc = parse_document('<a><x start="5"/></a>')
        with pytest.raises(RegionError):
            list(extract_regions(doc))

    def test_inverted_region_raises(self):
        doc = parse_document('<a><x start="9" end="5"/></a>')
        with pytest.raises(RegionError):
            list(extract_regions(doc))

    def test_unparseable_position_raises(self):
        doc = parse_document('<a><x start="five" end="9"/></a>')
        with pytest.raises(RegionError):
            list(extract_regions(doc))

    def test_double_positions(self):
        doc = parse_document('<a><x start="0.5" end="2.75"/></a>')
        config = StandoffConfig(position_type="xs:double")
        ((_pre, start, end),) = extract_regions(doc, config)
        assert (start, end) == (0.5, 2.75)

    def test_nested_annotations_not_restricted(self):
        # A descendant's region need not be contained in the ancestor's.
        doc = parse_document(
            '<a><x start="10" end="20"><y start="0" end="100"/></x></a>')
        assert len(list(extract_regions(doc))) == 2


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
