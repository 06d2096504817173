"""Evaluation engines: values, contexts, and the four evaluators of the paper."""

from repro.evaluation.api import (
    ENGINES,
    evaluate,
    evaluate_nodes,
    make_evaluator,
    query_selects,
)
from repro.evaluation.context import Context, Environment, initial_context
from repro.evaluation.core import CoreXPathEvaluator
from repro.evaluation.cvt import ContextValueTableEvaluator
from repro.evaluation.naive import NaiveEvaluator
from repro.evaluation.singleton import (
    DEFAULT_MAX_NEGATION_DEPTH,
    SingletonSuccessChecker,
)
from repro.evaluation.values import (
    NodeSet,
    XPathValue,
    arithmetic,
    compare,
    format_number,
    to_boolean,
    to_number,
    to_string,
)

__all__ = [
    "DEFAULT_MAX_NEGATION_DEPTH",
    "ENGINES",
    "Context",
    "ContextValueTableEvaluator",
    "CoreXPathEvaluator",
    "Environment",
    "NaiveEvaluator",
    "NodeSet",
    "SingletonSuccessChecker",
    "XPathValue",
    "arithmetic",
    "compare",
    "evaluate",
    "evaluate_nodes",
    "format_number",
    "initial_context",
    "make_evaluator",
    "query_selects",
    "to_boolean",
    "to_number",
    "to_string",
]
