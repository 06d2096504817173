"""Unit tests for Document, DocumentBuilder and build_tree."""

import pytest

from repro.xmlmodel.document import Document, DocumentBuilder, build_tree
from repro.xmlmodel.nodes import ElementNode, NodeType, RootNode


class TestDocumentBuilder:
    def test_basic_construction(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.add_element("b", {"x": "1"})
        builder.text("hello")
        builder.comment("note")
        builder.processing_instruction("pi", "data")
        builder.end_element()
        document = builder.finish()
        a = document.root.document_element()
        assert a.tag == "a"
        kinds = [child.node_type for child in a.children]
        assert kinds == [
            NodeType.ELEMENT,
            NodeType.TEXT,
            NodeType.COMMENT,
            NodeType.PROCESSING_INSTRUCTION,
        ]

    def test_unbalanced_end_raises(self):
        builder = DocumentBuilder()
        with pytest.raises(ValueError):
            builder.end_element()

    def test_finish_with_open_elements_raises(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        with pytest.raises(ValueError):
            builder.finish()

    def test_builder_unusable_after_finish(self):
        builder = DocumentBuilder()
        builder.add_element("a")
        builder.finish()
        with pytest.raises(ValueError):
            builder.add_element("b")

    def test_current_tracks_open_element(self):
        builder = DocumentBuilder()
        builder.start_element("a")
        builder.start_element("b")
        assert builder.current.tag == "b"
        builder.end_element()
        assert builder.current.tag == "a"


class TestDocument:
    def test_requires_root_node(self):
        with pytest.raises(TypeError):
            Document(ElementNode("a"))  # type: ignore[arg-type]

    def test_document_order_is_preorder(self):
        document = build_tree(("a", [("b", [("c",)]), ("d",)]))
        tags = [getattr(node, "tag", "#root") for node in document.nodes]
        assert tags == ["#root", "a", "b", "c", "d"]
        orders = [node.order for node in document.nodes]
        assert orders == sorted(orders)

    def test_attribute_order_follows_owner(self):
        document = build_tree(("a", {"x": "1", "y": "2"}, [("b",)]))
        a = document.root.document_element()
        b = a.children[0]
        assert all(a.order < attr.order < b.order for attr in a.attributes)

    def test_size_counts_attributes(self):
        document = build_tree(("a", {"x": "1"}, [("b",)]))
        # root + a + b + one attribute
        assert document.size == 4
        assert len(document) == 4

    def test_dom_contains_root_and_elements_only(self):
        document = build_tree(("a", [("b", ["text"])]))
        kinds = {node.node_type for node in document.dom()}
        assert kinds == {NodeType.ROOT, NodeType.ELEMENT}

    def test_elements_with_tag(self):
        document = build_tree(("a", [("b",), ("b",), ("c",)]))
        assert len(document.elements_with_tag("b")) == 2
        assert document.elements_with_tag("zzz") == []

    def test_elements_property(self):
        document = build_tree(("a", [("b", ["x"]), ("c",)]))
        assert [element.tag for element in document.elements] == ["a", "b", "c"]

    def test_iteration_yields_nodes(self):
        document = build_tree(("a",))
        assert list(iter(document)) == document.nodes


class TestBuildTree:
    def test_nested_spec(self):
        document = build_tree(("a", {"k": "v"}, [("b", ["hi"]), ("c", [("d",)])]))
        a = document.root.document_element()
        assert a.get_attribute("k") == "v"
        assert [child.tag for child in a.element_children()] == ["b", "c"]

    def test_string_spec_is_text(self):
        document = build_tree(("a", ["hello"]))
        assert document.root.string_value() == "hello"

    def test_invalid_spec_raises(self):
        with pytest.raises(TypeError):
            build_tree(42)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            build_tree(("a", object()))  # type: ignore[arg-type]


class TestNodesOnDemand:
    """Parsed and snapshot-loaded documents are columns first; the node
    tree appears with the first request for a node, once."""

    XML = '<a x="1"><b>hi</b><!--note--><?pi data?><b y="2"><c/></b></a>'

    def test_a_parsed_document_has_no_nodes_until_asked(self):
        from repro.evaluation.core import CoreXPathEvaluator
        from repro.xmlmodel import parse_xml

        document = parse_xml(self.XML)
        assert not document.has_nodes and not document.has_index
        assert (document.size, document.root_tag, len(document)) == (10, "a", 10)
        assert CoreXPathEvaluator(document).evaluate_ids("//b[child::c]") == [6]
        index = document.index
        assert index.step_ids(1, "child", "b") == [2, 6]
        assert index.step_ids(1, "child", "comment()") == [4]
        assert index.step_ids(1, "child", "processing-instruction('pi')") == [5]
        assert index.step_ids(1, "child", "processing-instruction('other')") == []
        assert not document.has_nodes
        assert document.root.document_element().tag == "a"
        assert document.has_nodes

    @pytest.mark.parametrize(
        "touch",
        [
            lambda d: d.root,
            lambda d: d.nodes,
            lambda d: d.attributes,
            lambda d: d.elements_with_tag("b"),
            lambda d: d.index.nodes,
            lambda d: d.index.node_of(0),
            lambda d: d.index.ids_to_node_list([1]),
            lambda d: list(d),
        ],
    )
    def test_every_node_accessor_materialises_the_same_tree(self, touch):
        from repro.xmlmodel import parse_xml

        document = parse_xml(self.XML)
        touch(document)
        assert document.has_nodes
        nodes = document.nodes
        assert document.index.nodes is nodes and document.root is nodes[0]
        assert [document.index.id_of(node) for node in nodes] == list(range(len(nodes)))
        assert all(node.document is document for node in nodes + document.attributes)
        assert len({node.uid for node in nodes + document.attributes}) == document.size
        orders = sorted(node.order for node in nodes + document.attributes)
        assert orders == list(range(document.size))

    def test_materialised_tree_equals_the_builder_tree(self):
        from repro.xmlmodel import parse_xml, serialize

        built = build_tree(
            ("a", {"x": "1"}, [("b", ["hi"]), ("b", {"y": "2"}, [("c",)])])
        )
        parsed = parse_xml(serialize(built))
        assert built.has_nodes and not parsed.has_nodes
        assert serialize(parsed) == serialize(built)
        assert [n.order for n in parsed.nodes] == [n.order for n in built.nodes]
        for name in ("parent", "subtree_end", "post", "first_child", "next_sibling", "prev_sibling"):
            assert list(getattr(parsed.columns, name)) == list(getattr(built.columns, name))

    def test_first_touch_from_many_threads_builds_one_tree(self):
        import sys
        import threading

        from repro.xmlmodel import parse_xml

        document = parse_xml("<r>" + "<a><b/>t</a>" * 400 + "</r>")
        barrier = threading.Barrier(8)
        seen, errors = [], []

        def touch(use_index):
            try:
                barrier.wait(timeout=10)
                nodes = document.index.nodes if use_index else document.nodes
                seen.append((nodes, document.root, document.index.node_of(5)))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=touch, args=(i % 2 == 0,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        first = seen[0]
        assert all(nodes is first[0] and root is first[1] and fifth is first[2] for nodes, root, fifth in seen)
        assert len({node.uid for node in first[0]}) == len(first[0]) == 1 + 1 + 400 * 3

    def test_an_index_that_outlives_its_document_still_materialises(self):
        import gc

        from repro.xmlmodel import parse_xml

        index = parse_xml(self.XML).index
        gc.collect()
        nodes = index.nodes
        assert [index.id_of(node) for node in nodes] == list(range(index.size))
        assert nodes[0].document.index is index
        assert all(node.document is nodes[0].document for node in nodes)

    def test_an_unmaterialised_document_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        from repro.xmlmodel import parse_xml

        gc.disable()
        try:
            document = parse_xml(self.XML)
            document.index.axis_ids(1, "child")
            gone = weakref.ref(document)
            del document
            assert gone() is None
            # ... and so is one whose Core evaluator holds cached condition
            # sets, while the expressions they are keyed by are still alive:
            # the cache's weak references must not tie evaluator, document
            # and callbacks into a cycle.
            from repro.evaluation.core import CoreXPathEvaluator
            from repro.xpath.parser import parse

            document = parse_xml(self.XML)
            evaluator = CoreXPathEvaluator(document)
            expr = parse("//b[child::c and not(child::d)]")
            assert evaluator.evaluate_ids(expr) == [6]
            assert len(evaluator._condition_cache) == 4
            gone, evaluator_gone = weakref.ref(document), weakref.ref(evaluator)
            del document, evaluator
            assert gone() is None and evaluator_gone() is None
            del expr  # its callbacks find no evaluator left, and say nothing
        finally:
            gc.enable()

    def test_root_tag_is_read_from_the_columns(self):
        from repro.xmlmodel import parse_xml

        document = parse_xml("<!--first--><?pi x?><doc><a/></doc>")
        assert document.root_tag == "doc" and not document.has_nodes
        assert Document(RootNode()).root_tag is None
