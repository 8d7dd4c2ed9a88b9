"""Codec benchmark: the one-pass reader and writer against the reference.

Reads and writes the integrated address-book dataspace that
``bench_fusion.py`` builds (``PAIRS`` merged books of ``PERSONS`` persons
a side, plus their ``2 * PAIRS`` certain sources) with the program's codec
and with ``tests/xml_reference.py``, the recursive, character-at-a-time
codec it replaced.  Merged documents go through ``parse_pxml`` and
``pxml_to_text``, sources through ``parse_document`` and ``serialize``.

Acceptance:

* reading is at least ``BENCH_CODEC_SPEEDUP_FLOOR`` (2.5) times faster
  than the reference, summed over the dataspace;
* writing is not slower than the reference;
* both codecs read the same trees and write the same bytes.
"""

import gc
import os
import statistics
import time

from repro.core.engine import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.pxml.model import px_deep_equal
from repro.pxml.serialize import parse_pxml, pxml_to_text
from repro.xmlkit.nodes import deep_equal
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize
from tests import xml_reference as reference

from .bench_fusion import PAIRS, PERSONS
from .conftest import format_table, write_bench_json, write_result

#: Read speed-up floor over the reference.  CI shared runners set a lower
#: sanity floor through this variable rather than flaking on noise.
CODEC_SPEEDUP_FLOOR = float(os.environ.get("BENCH_CODEC_SPEEDUP_FLOOR", "2.5"))

#: Interleaved timing rounds per document and codec; the median is kept.
ROUNDS = 5


def _dataspace():
    """(kind, document) for every document of the dataspace."""
    rules = [DeepEqualRule(), LeafValueRule()]
    documents = []
    for pair in range(PAIRS):
        book_a, book_b = addressbook_documents(
            [(f"p{pair}{i}", f"1{pair}{i}") for i in range(PERSONS)],
            [(f"p{pair}{i}", f"2{pair}{i}") for i in range(PERSONS)],
        )
        merged = integrate(book_a, book_b, rules=rules, dtd=ADDRESSBOOK_DTD)
        documents += [("xml", book_a), ("xml", book_b), ("pxml", merged.document)]
    return documents


#: kind -> ((read, write) of the program, (read, write) of the reference)
CODECS = {
    "pxml": (
        (parse_pxml, pxml_to_text),
        (reference.parse_pxml, reference.pxml_to_text),
    ),
    "xml": (
        (parse_document, serialize),
        (reference.parse_document, reference.serialize),
    ),
}


def _medians(calls, argument):
    """Median seconds of each call over ``ROUNDS`` rounds that alternate
    between them."""
    timings = [[] for _ in calls]
    for _ in range(ROUNDS):
        for call, times in zip(calls, timings):
            gc.collect()
            start = time.perf_counter()
            call(argument)
            times.append(time.perf_counter() - start)
    return [statistics.median(times) for times in timings]


def test_one_pass_codec_vs_reference():
    """Acceptance: the read is at least the floor faster than the
    reference, the write no slower, and both give the same trees and
    bytes."""
    totals = {"read": [0.0, 0.0], "write": [0.0, 0.0]}
    size = 0
    for kind, document in _dataspace():
        (read, write), (old_read, old_write) = CODECS[kind]
        text = write(document)
        assert text == old_write(document)
        tree, old_tree = read(text), old_read(text)
        if kind == "pxml":
            assert px_deep_equal(tree.root, old_tree.root)
        else:
            assert deep_equal(tree.root, old_tree.root, ignore_order=False)
        size += len(text)
        for direction, calls, argument in (
            ("read", (read, old_read), text),
            ("write", (write, old_write), document),
        ):
            for side, seconds in enumerate(_medians(calls, argument)):
                totals[direction][side] += seconds

    read_speedup = totals["read"][1] / totals["read"][0]
    write_speedup = totals["write"][1] / totals["write"][0]
    write_result(
        "codec",
        f"Document codec — one pass vs reference ({3 * PAIRS} documents,"
        f" {size / 1024:.0f} KiB of text; median of {ROUNDS} rounds each)\n"
        + format_table(
            ["direction", "one pass", "reference", "speedup"],
            [
                [name, f"{new * 1e3:8.1f} ms", f"{old * 1e3:8.1f} ms",
                 f"{old / new:.2f}×"]
                for name, (new, old) in totals.items()
            ],
        ),
    )
    write_bench_json(
        "codec",
        {
            "workload": "read_and_write_integrated_addressbook_dataspace",
            "documents": 3 * PAIRS,
            "text_chars": size,
            "rounds": ROUNDS,
            "read_seconds": totals["read"][0],
            "reference_read_seconds": totals["read"][1],
            "write_seconds": totals["write"][0],
            "reference_write_seconds": totals["write"][1],
            "read_speedup": read_speedup,
            "write_speedup": write_speedup,
            "floor": CODEC_SPEEDUP_FLOOR,
            "cpu_count": os.cpu_count(),
        },
    )
    assert read_speedup >= CODEC_SPEEDUP_FLOOR, (
        f"read speed-up {read_speedup:.2f}× below the"
        f" {CODEC_SPEEDUP_FLOOR}× acceptance floor"
    )
    assert write_speedup >= 1.0, (
        f"writer slower than the reference ({write_speedup:.2f}×)"
    )
