"""Unit tests for the fragment classifiers (Definitions 2.5, 2.6, 5.1, 6.1)."""

import pytest

from repro.fragments import (
    FRAGMENT_COMPLEXITY,
    FRAGMENT_ORDER,
    classify,
    is_core_xpath,
    is_pf,
    is_positive_core_xpath,
    is_pwf,
    is_pxpath,
    is_wf,
    violations_core_xpath,
    violations_pwf,
    violations_pxpath,
    violations_wf,
)


class TestCoreXPath:
    @pytest.mark.parametrize(
        "query",
        [
            "/descendant-or-self::*[child::R and child::G]",
            "//a[child::b and not(following-sibling::d)]",
            "child::a/descendant::b[ancestor::c or self::d]",
            "//a | /child::b[not(child::c)]",
            "preceding::a[preceding-sibling::b]",
        ],
    )
    def test_members(self, query):
        assert is_core_xpath(query)

    @pytest.mark.parametrize(
        "query,reason_fragment",
        [
            ("//a[position() = 1]", "position"),
            ("//a[@id]", "axis 'attribute'"),
            ("count(//a)", "location path"),
            ("//a['literal']", "condition"),
            ("//a[child::b = child::c]", "condition"),
            ("1 + 2", "location path"),
        ],
    )
    def test_non_members_with_reasons(self, query, reason_fragment):
        violations = violations_core_xpath(query)
        assert violations
        assert any(reason_fragment in violation for violation in violations)

    def test_positive_fragment_excludes_not(self):
        assert is_positive_core_xpath("//a[child::b or child::c]")
        assert not is_positive_core_xpath("//a[not(child::b)]")
        assert is_core_xpath("//a[not(child::b)]")


class TestPF:
    def test_members(self):
        assert is_pf("/descendant::a/child::b/parent::*")
        assert is_pf("//a/following-sibling::b")

    def test_conditions_excluded(self):
        assert not is_pf("//a[child::b]")
        assert is_core_xpath("//a[child::b]")


class TestWF:
    @pytest.mark.parametrize(
        "query",
        [
            "//a[position() = last()]",
            "//a[position() + 1 = last() and child::b]",
            "//a[not(position() > 2)]",
            "//a[child::b][position() = 1]",
            "//a[2 >= 1 + 1]",
        ],
    )
    def test_members(self, query):
        assert is_wf(query)

    @pytest.mark.parametrize(
        "query",
        [
            "//a[@id = 'x']",
            "//a[string-length(child::b) > 1]",
            "//a['text']",
            "//a[count(child::b) = 2]",
            "//a[child::b = 3]",
            "$x",
        ],
    )
    def test_non_members(self, query):
        assert not is_wf(query)
        assert violations_wf(query)


class TestPWF:
    def test_members(self):
        assert is_pwf("//a[position() = last() and child::b]")
        assert is_pwf("//a[child::b or position() < 3]")

    def test_iterated_predicates_excluded(self):
        query = "//a[child::b][child::c]"
        assert is_wf(query)
        assert not is_pwf(query)
        assert any("iterated" in violation for violation in violations_pwf(query))

    def test_negation_excluded(self):
        assert not is_pwf("//a[not(child::b)]")

    def test_arithmetic_nesting_bound(self):
        deep = "//a[position() = 1 + (2 * (3 - (4 + 5)))]"
        assert not is_pwf(deep, nesting_bound=3)
        assert is_pwf(deep, nesting_bound=10)


class TestPXPath:
    def test_members_include_strings_and_attributes(self):
        assert is_pxpath("//a[@id = 'x']")
        assert is_pxpath("//a[contains(child::b, 'text')]")
        assert is_pxpath("//a[child::b > 3][position() = 2]") is False  # iterated
        assert is_pxpath("//open_auction[child::initial > 100]")

    @pytest.mark.parametrize(
        "query,keyword",
        [
            ("//a[not(child::b)]", "not"),
            ("//a[count(child::b) = 1]", "count"),
            ("//a[string(child::b) = 'x']", "string"),
            ("//a[child::b][child::c]", "iterated"),
            ("//a[true() = (child::b and child::c)]", "boolean operand"),
        ],
    )
    def test_non_members(self, query, keyword):
        assert not is_pxpath(query)
        assert any(keyword in violation for violation in violations_pxpath(query))

    def test_concat_bounds(self):
        assert is_pxpath("//a[concat('x', 'y') = 'xy']")
        wide = "//a[concat('a','b','c','d','e','f','g') = 'x']"
        assert not is_pxpath(wide)


class TestClassification:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ("/descendant::a/child::b", "PF"),
            ("//a[child::b]", "positive Core XPath"),
            ("//a[not(child::b)]", "Core XPath"),
            ("//a[position() = last()]", "pWF"),
            ("//a[not(position() = 1)]", "WF"),
            ("//a[@id = 'x']", "pXPath"),
            ("//a[count(child::b) > 1]", "XPath"),
        ],
    )
    def test_most_specific_fragment(self, query, expected):
        classification = classify(query)
        assert classification.most_specific == expected
        assert classification.combined_complexity == FRAGMENT_COMPLEXITY[expected]

    def test_membership_is_upward_closed_along_figure1(self):
        # Whatever the most specific fragment, the query must also be in XPath
        # and (if in a positive fragment) in its supersets from Figure 1.
        classification = classify("//a[child::b]")
        assert "XPath" in classification.fragments
        assert "Core XPath" in classification.fragments
        assert "pWF" in classification.fragments

    def test_violations_reported_for_non_member_fragments(self):
        classification = classify("//a[count(child::b) > 1]")
        assert "Core XPath" in classification.violations
        assert classification.violations["Core XPath"]

    def test_fragment_order_matches_complexity_table(self):
        assert set(FRAGMENT_ORDER) == set(FRAGMENT_COMPLEXITY)

    def test_contains_dunder(self):
        classification = classify("//a[child::b]")
        assert "positive Core XPath" in classification
        assert "PF" not in classification


class TestClassifyEqualsThePerFragmentFunctions:
    """``classify`` derives each list once, from shared pieces; the seven
    public functions derive each on their own.  Same lists, same order."""

    #: One witness per rule of Definition 5.1 (pWF) and 6.1 (pXPath), plus
    #: queries that break several rules at once (message order matters).
    WITNESSES = [
        "//a[child::b][child::c]",  # 5.1(1) / 6.1(1): iterated predicates
        "(//a)[1][2]",  # ... on a filter expression
        "//a[not(position() = 1)]",  # 5.1(2) / 6.1(2): not()
        "//a[position() = 1 + (2 * (3 - (4 + 5)))]",  # 5.1(3) / 6.1(4): arithmetic depth
        "//a[position() = -(-(-(-1)))]",  # ... through unary minus
        "//a[count(child::b) = 1]",  # 6.1(2): forbidden function
        "//a[string(child::b) = 'x' and count(child::c) > sum(child::d)]",
        "//a[true() = (child::b and child::c)]",  # 6.1(3): boolean operand
        "//a[(child::b = 1) != (child::c = 2)]",  # ... on both sides, nested
        "//a[concat('a','b','c','d','e','f','g') = 'x']",  # 6.1(4): concat arity
        "//a[concat('a', concat('b', concat('c', concat('d', 'e')))) = 'x']",  # nesting
        "//a[not(child::b)][count(child::c) > 1 + (2 * (3 - (4 + 5)))]",  # several
        "//a[not(child::b) and not(child::c[not(child::d)])]",  # not() three times
        "not(//a)",  # not(), but no location path on top
        "//a[not(child::b, child::c)]",  # not() with the wrong arity
        "//a | //b[not(child::c)]",
        "//a[@id]",
        "//a['literal']",
        "$x",
        "1 + 2",
        "id('x')/child::a",
        "//a[child::b = child::c]",
    ]

    @staticmethod
    def assert_consistent(query, nesting_bound=3):
        from repro.fragments import violations_pf

        expected = {
            "PF": violations_pf(query),
            "positive Core XPath": violations_core_xpath(query, allow_negation=False),
            "Core XPath": violations_core_xpath(query),
            "pWF": violations_pwf(query, nesting_bound),
            "WF": violations_wf(query),
            "pXPath": violations_pxpath(query, nesting_bound),
            "XPath": [],
        }
        classification = classify(query, nesting_bound)
        members = tuple(name for name in FRAGMENT_ORDER if not expected[name])
        assert classification.fragments == members, query
        assert classification.most_specific == members[0], query
        assert classification.combined_complexity == FRAGMENT_COMPLEXITY[members[0]]
        assert classification.violations == {
            name: reasons for name, reasons in expected.items() if reasons
        }, query
        lists = list(classification.violations.values())
        assert len({id(reasons) for reasons in lists}) == len(lists)  # no aliasing

    @pytest.mark.parametrize("query", WITNESSES)
    def test_witnesses(self, query):
        self.assert_consistent(query)
        self.assert_consistent(query, nesting_bound=1)

    def test_fragment_examples_of_this_module(self):
        from repro.bench import representative_queries

        for group in representative_queries().values():
            for query in group:
                self.assert_consistent(query)

    def test_cvt_templates(self):
        from tests.evaluation.test_cvt_setwise import TABLE_ENTRIES

        for query in TABLE_ENTRIES:
            self.assert_consistent(query)

    def test_ledger_style_texts(self):
        corpus = pytest.importorskip("ledger.corpus")
        queries = pytest.importorskip("ledger.queries")
        documents = [
            corpus.auction_document("auction", 5, 24),
            corpus.config_document("config", 5, 32),
            corpus.wide_document("wide", 5, 60),
            corpus.deep_document("deep", 5, 140),
        ]
        core = [text for document in documents for text, _ in queries.core_queries(document)]
        full = [text for text, _, _ in queries.xpath_queries(documents[0], abbreviated=True)]
        assert len(core) > 500 and len(full) > 500
        for query in core[::3] + full[::7]:
            self.assert_consistent(query)
        for query in core[::3]:
            assert "Core XPath" in classify(query)

    def test_an_unknown_function_raises_the_same_error(self):
        from repro.errors import XPathTypeError

        for query in ("foo(1) = bar(2)", "foo(bar() = baz())", "//a[foo(child::b) = 1]"):
            with pytest.raises(XPathTypeError) as separate:
                violations_wf(query), violations_pxpath(query)
            with pytest.raises(XPathTypeError) as together:
                classify(query)
            assert str(together.value) == str(separate.value), query

    def test_each_rule_is_worded_once(self):
        import importlib
        import inspect

        # (`repro.fragments.classify` the attribute is the function.)
        source = inspect.getsource(importlib.import_module("repro.fragments.classify"))
        for wording in (
            "PF forbids conditions",
            "the not() function is excluded (positive fragment)",
            "the not() function is excluded (Definition 5.1(2))",
            "(Definition 5.1(1))",
            "(Definition 5.1(3))",
            "(Definition 6.1(1))",
            "(Definition 6.1(2))",
            "(Definition 6.1(3))",
            "has a boolean operand",
            "concat() arity",
            "concat() nesting depth",
            "is outside Core XPath",
            "() is outside WF",
        ):
            assert source.count(wording) == 1, wording
