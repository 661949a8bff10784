"""Rendering: fixed-point decimals, the table checks and the JSON table writer."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citewindow import PaperRecord, validate_corpus
from citewindow.rational import _fixed, format_fixed
from citewindow.tables import OutputTable, aging_output, groups_output, json_document


def reference_fixed(value: Fraction, places: int) -> str:
    n = round(value * 10**places)  # Fraction rounding: ties to even
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**places)
    return f"{sign}{whole}" if places == 0 else f"{sign}{whole}.{frac:0{places}d}"


PLACES = st.integers(0, 6)
FRACTIONS = st.fractions(max_denominator=10**9)


@st.composite
def ties(draw):
    """Values exactly halfway between two neighbours at ``places`` decimals."""
    places = draw(PLACES)
    odd = 2 * draw(st.integers(-(10**8), 10**8)) + 1
    return Fraction(odd, 2 * 10**places), places


class TestFormatFixed:
    @given(FRACTIONS, PLACES)
    @example(Fraction(-1, 3), 4)
    @example(Fraction(-1, 10**6), 4)
    @example(Fraction(0), 0)
    @settings(max_examples=300)
    def test_matches_fraction_rounding(self, value, places):
        assert format_fixed(value, places) == reference_fixed(value, places)

    @given(ties())
    @example((Fraction(1, 2), 0))
    @example((Fraction(-5, 2), 0))
    @example((Fraction(-125, 1000), 2))
    @settings(max_examples=300)
    def test_exact_ties_round_to_even(self, tie):
        value, places = tie
        assert format_fixed(value, places) == reference_fixed(value, places)

    @given(st.integers(-(10**12), 10**12), st.integers(1, 10**6), st.integers(1, 10**4), PLACES)
    @example(6, 4, 1, 0)  # 1.5 ties to 2
    @example(-10, 4, 5, 0)  # -2.5 ties to -2
    @example(5, 1000, 7, 2)  # 0.005 ties to 0.00
    @settings(max_examples=300)
    def test_unreduced_pairs_match_format_fixed(self, num, den, factor, places):
        # A common factor leaves num / den unreduced; _fixed must not care.
        expected = format_fixed(Fraction(num, den), places)
        assert _fixed(num * factor, den * factor, places) == expected

    def test_ints_and_ties(self):
        assert format_fixed(3, 2) == "3.00"
        assert format_fixed(Fraction(5, 2), 0) == "2"
        assert format_fixed(Fraction(-5, 2), 0) == "-2"
        assert format_fixed(Fraction(-3, 2), 0) == "-2"
        assert format_fixed(Fraction(1, 8), 2) == "0.12"
        assert format_fixed(Fraction(-1, 200), 2) == "0.00"  # -0.005 ties to 0


# Quotes, backslashes, control characters, surrogate-free non-ASCII.
CELLS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def output_tables(draw):
    width = draw(st.integers(0, 4))
    columns = tuple(draw(st.lists(CELLS, min_size=width, max_size=width)))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=4))
    return OutputTable(columns, tuple(map(tuple, rows)))


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class TestJsonWriter:
    @given(output_tables())
    @example(OutputTable((), ()))
    @example(OutputTable(("a",), ()))
    @example(OutputTable((), ((), ())))
    @example(OutputTable(('"q"', "\\"), (("\x00\x1f\x7f", "é中 "),)))
    @settings(max_examples=200)
    def test_table_matches_json_dumps(self, table):
        assert table.to_json() == reference_json(table.to_json_obj())
        assert json_document([("only", table)]) == table.to_json()

    @given(st.lists(st.tuples(CELLS, output_tables()), min_size=2, max_size=3, unique_by=lambda p: p[0]))
    @settings(max_examples=100)
    def test_document_matches_json_dumps(self, named):
        expected = reference_json({name: table.to_json_obj() for name, table in named})
        assert json_document(named) == expected


class TestTableChecks:
    def test_row_arity_must_match_header(self):
        with pytest.raises(ValueError, match="arity"):
            OutputTable(("a", "b"), (("1", "2"), ("3",)))

    def test_unknown_groups_mode_rejected(self, toy_corpus):
        with pytest.raises(ValueError, match="mode"):
            groups_output(toy_corpus, mode="monthly")


class TestAgingTable:
    def test_rows_share_their_cell_strings(self):
        # 3 000 papers, all cited, over 40 years: a row's year, age, total and
        # windows repeat across rows.  With one new string per cell a row held
        # about 540 traced bytes; with only the rank new per row, about 190.
        rng = np.random.default_rng(25)
        papers = []
        for i in range(3000):
            pub = int(rng.integers(1980, 2020))
            counts = rng.poisson(3.0, size=2020 - pub)
            counts[0] += 1
            citations = {pub + t: int(c) for t, c in enumerate(counts) if c}
            papers.append(PaperRecord(f"p{i:04d}", pub, citations))
        corpus = validate_corpus(papers)
        # A first table builds whatever the corpus caches; it stays alive, so
        # its rows do not refill the free lists that the second table draws on.
        kept = aging_output(corpus, min_citations=1)
        tracemalloc.start()
        try:
            table = aging_output(corpus, min_citations=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table == kept and len(table.rows) == 3000
        assert held / len(table.rows) < 300
