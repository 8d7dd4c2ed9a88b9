"""Probabilistic XML: the paper's §II data model and its semantics.

The layered tree has three node kinds:

* **probability nodes** (▽, :class:`ProbNode`) — choice points; their
  children are possibility nodes;
* **possibility nodes** (○, :class:`Possibility`) — one alternative with an
  associated probability; sibling possibilities are mutually exclusive and
  their probabilities sum to 1; their children are regular XML nodes;
* **regular nodes** (:class:`PXElement` / :class:`PXText`) — ordinary XML;
  element children are probability nodes again.

The root of a probabilistic document is always a probability node.  A
document where every probability node has a single possibility with
probability 1 is *certain*.
"""

from .model import (
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
    px_canonical_key,
    px_deep_equal,
    validate_document,
)
from .build import (
    certain_document,
    certain_element,
    certain_prob,
    choice_prob,
    to_certain,
)
from .worlds import World, distinct_worlds, iter_worlds, world_count
from .events import (
    Event,
    FALSE_EVENT,
    TRUE_EVENT,
    all_of,
    any_of,
    event_probability,
    independent_components,
    interned_count,
    lit,
    none_of,
    pivot_variable,
    product_of,
    weighted_sum,
)
from .events_compile import (
    CompiledEvent,
    LiteralProbabilityTable,
    compile_event,
    compiled_probability,
    iter_compiled,
    shared_literal_table,
)
from .events_cache import (
    DEFAULT_MAX_ENTRIES,
    EventProbabilityCache,
    cache_for,
    invalidate,
    registered_count,
)
from .stats import NodeStats, expected_world_size, node_count, tree_stats
from .simplify import SimplifyReport, simplify
from .treefold import TreeFold, fold_tree
from .serialize import parse_pxml, pxml_to_text, pxml_to_xml, xml_to_pxml
from .sampling import sample_world, sample_worlds
from .measures import UncertaintyProfile, uncertainty_profile, world_entropy

__all__ = [
    "ProbNode",
    "Possibility",
    "PXElement",
    "PXText",
    "PXDocument",
    "validate_document",
    "px_canonical_key",
    "px_deep_equal",
    "certain_document",
    "certain_element",
    "certain_prob",
    "choice_prob",
    "to_certain",
    "World",
    "iter_worlds",
    "world_count",
    "distinct_worlds",
    "Event",
    "TRUE_EVENT",
    "FALSE_EVENT",
    "lit",
    "all_of",
    "any_of",
    "none_of",
    "event_probability",
    "independent_components",
    "interned_count",
    "pivot_variable",
    "product_of",
    "weighted_sum",
    "CompiledEvent",
    "LiteralProbabilityTable",
    "compile_event",
    "compiled_probability",
    "iter_compiled",
    "shared_literal_table",
    "DEFAULT_MAX_ENTRIES",
    "EventProbabilityCache",
    "cache_for",
    "invalidate",
    "registered_count",
    "NodeStats",
    "node_count",
    "tree_stats",
    "expected_world_size",
    "SimplifyReport",
    "simplify",
    "TreeFold",
    "fold_tree",
    "pxml_to_xml",
    "xml_to_pxml",
    "pxml_to_text",
    "parse_pxml",
    "sample_world",
    "sample_worlds",
    "UncertaintyProfile",
    "uncertainty_profile",
    "world_entropy",
]
