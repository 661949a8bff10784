"""Core model: validation, windows, per-paper aggregation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citewindow import (
    CitationBeforePublicationError,
    Corpus,
    DuplicateIdError,
    EmptyCorpusError,
    InvalidRangeError,
    NegativeCountError,
    PaperRecord,
    RankedCitations,
    YearWindow,
    export_corpus_json,
    parse_corpus_json,
    validate_corpus,
)
from helpers import small_corpora

# Both ways of building a corpus from records validate the same way.
BUILDERS = (validate_corpus, Corpus)

YEARS_OUTSIDE = st.one_of(st.integers(-(10**20), 999), st.integers(10_000, 10**20))
IN_RANGE_YEARS = st.integers(1995, 2010)


def mostly(fine, *faults):
    """Draws of ``fine``, but for one in fifteen for each of ``faults``."""
    return st.sampled_from([fine] * (15 - len(faults)) + list(faults)).flatmap(lambda s: s)


# A citation drawn in range may fall before publication; the others carry
# one injected fault each: a year outside 1000..9999, a negative count or
# a count above 2**31 - 1.
CITATIONS = mostly(
    st.tuples(IN_RANGE_YEARS, st.integers(1, 99)),
    st.tuples(YEARS_OUTSIDE, st.integers(1, 99)),
    st.tuples(IN_RANGE_YEARS, st.integers(-(10**20), -1)),
    st.tuples(IN_RANGE_YEARS, st.integers(2**31, 10**25)),
)
FAULTY_RECORDS = st.builds(
    PaperRecord,
    st.sampled_from(["P0", "P1", "P2", "P3"]),
    mostly(IN_RANGE_YEARS, YEARS_OUTSIDE),
    st.lists(CITATIONS, max_size=4, unique_by=lambda pair: pair[0]),
    st.sampled_from([None, "a title"]),
)


def in_order_violation(records):
    """(error type, paper id, year or None) of the first rule broken, checking
    each record in input order and its citations in year order; None if none is."""
    seen = set()
    for paper in records:
        if paper.id in seen:
            return DuplicateIdError, paper.id, None
        seen.add(paper.id)
        if not 1000 <= paper.pub_year <= 9999:
            return InvalidRangeError, paper.id, None
        for year, count in paper.citations:
            if count < 0:
                return NegativeCountError, paper.id, year
            if not (1000 <= year <= 9999 and count <= 2**31 - 1):
                return InvalidRangeError, paper.id, None
            if year < paper.pub_year:
                return CitationBeforePublicationError, paper.id, year
    return None


class TestYearWindow:
    def test_membership_is_inclusive(self):
        window = YearWindow(2000, 2002)
        assert 2000 in window
        assert 2002 in window
        assert 1999 not in window
        assert 2003 not in window

    def test_unbounded_start(self):
        window = YearWindow.through(2003)
        assert -5000 in window
        assert 2003 in window
        assert 2004 not in window

    def test_inverted_bounds_rejected(self):
        with pytest.raises(InvalidRangeError):
            YearWindow(2005, 2004)

    def test_single_year_window(self):
        window = YearWindow(2001, 2001)
        assert 2001 in window
        assert 2000 not in window


class TestPaperRecord:
    def test_zero_counts_are_dropped(self):
        paper = PaperRecord("P", 2000, {2000: 1, 2001: 0, 2002: 3})
        assert paper.citations == ((2000, 1), (2002, 3))

    def test_accepts_pairs_and_sorts_by_year(self):
        paper = PaperRecord("P", 2000, [(2003, 2), (2000, 1)])
        assert paper.citations == ((2000, 1), (2003, 2))

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            PaperRecord("", 2000)

    @pytest.mark.parametrize(
        "citations", [[(2001, 3), (2001, 4)], {2001: 3, "2001": 4}, [(2001, 0), (2001, 4)]]
    )
    def test_repeated_year_rejected(self, citations):
        with pytest.raises(ValueError, match="citation year 2001 is listed twice"):
            PaperRecord("a", 2000, citations)

    def test_title_must_be_text(self):
        with pytest.raises(TypeError):
            PaperRecord("a", 2000, {2001: 2}, title=5)

    def test_empty_title_is_none(self):
        assert PaperRecord("P", 2000, title="").title is None

    def test_totals(self):
        paper = PaperRecord("P", 2000, {2000: 1, 2001: 3, 2003: 2})
        assert paper.total_citations() == 6
        assert paper.total_citations(2001) == 4


class TestValidateCorpus:
    def test_computes_span(self):
        corpus = validate_corpus([PaperRecord("P1", 2000, {2000: 1, 2001: 3, 2003: 2})])
        assert corpus.y0 == 2000
        assert corpus.y_end == 2003

    def test_uncited_late_paper_extends_span(self, toy_corpus):
        assert toy_corpus.y0 == 2000
        assert toy_corpus.y_end == 2005
        assert toy_corpus.total_citations() == 11

    def test_empty_corpus_allowed_but_rejected_downstream(self):
        corpus = validate_corpus([])
        assert corpus.is_empty
        with pytest.raises(EmptyCorpusError):
            corpus.y0
        with pytest.raises(EmptyCorpusError):
            corpus.y_end

    def test_duplicate_id(self):
        papers = [PaperRecord("P", 2000), PaperRecord("P", 2001)]
        for build in BUILDERS:
            with pytest.raises(DuplicateIdError):
                build(papers)

    def test_citation_before_publication(self):
        for build in BUILDERS:
            with pytest.raises(CitationBeforePublicationError):
                build([PaperRecord("P", 2005, {2004: 1})])

    def test_negative_count(self):
        for year in (2001, 500, 10**30):
            for build in BUILDERS:
                with pytest.raises(NegativeCountError) as exc:
                    build([PaperRecord("P", 2000, {year: -2})])
                assert exc.value.year == year

    @pytest.mark.parametrize(
        "paper",
        [
            PaperRecord("P", 999),
            PaperRecord("P", 10000),
            PaperRecord("P", 2000, {10000: 1}),
            PaperRecord("P", 2000, {2001: 2**31}),
            PaperRecord("P", 2000, {2001: 2**62}),
            PaperRecord("P", 2000, {2001: 10**23}),
        ],
    )
    def test_years_and_counts_are_bounded(self, paper):
        for build in BUILDERS:
            with pytest.raises(InvalidRangeError) as exc:
                build([PaperRecord("A", 2000, {2001: 2**31 - 1}), paper])
            assert "'P'" in str(exc.value)

    def test_first_violation_in_input_order(self):
        # Z comes first in the input but after A in id order; both break rules.
        papers = [
            PaperRecord("Z", 2005, {2003: 1, 2002: 1}),
            PaperRecord("A", 2005, {2001: -1}),
            PaperRecord("Z", 2006),
        ]
        for build in BUILDERS:
            with pytest.raises(CitationBeforePublicationError) as exc:
                build(papers)
            assert (exc.value.paper_id, exc.value.year) == ("Z", 2002)
            with pytest.raises(NegativeCountError):
                build(papers[1:])
            with pytest.raises(NegativeCountError):
                build([papers[1], *papers])

    @given(st.data())
    def test_first_violation_matches_an_in_order_loop(self, data):
        records = data.draw(st.lists(FAULTY_RECORDS, max_size=6))
        expected = in_order_violation(records)
        for build in BUILDERS:
            if expected is None:
                corpus = build(records)
                assert [(p.id, p.pub_year, p.citations, p.title) for p in corpus.papers] == sorted(
                    (p.id, p.pub_year, p.citations, p.title) for p in records
                )
                continue
            kind, paper_id, year = expected
            with pytest.raises(kind) as exc:
                build(records)
            assert repr(paper_id) in str(exc.value)
            assert getattr(exc.value, "year", None) == year

    def test_records_view_and_equality(self, toy_corpus):
        rebuilt = validate_corpus(reversed(toy_corpus.papers))
        assert rebuilt == toy_corpus
        assert Corpus(toy_corpus.papers) == toy_corpus
        assert hash(rebuilt) == hash(toy_corpus)
        assert validate_corpus([PaperRecord("P1", 2000)]) != toy_corpus
        assert list(toy_corpus) == list(Corpus(reversed(toy_corpus.papers)).papers)

    def test_papers_sorted_by_id(self):
        corpus = validate_corpus([PaperRecord("B", 2001), PaperRecord("A", 2000)])
        assert [p.id for p in corpus.papers] == ["A", "B"]

    def test_repr_is_a_summary_that_builds_no_records(self, toy_corpus):
        corpus = parse_corpus_json(export_corpus_json(toy_corpus))
        assert repr(corpus) == "Corpus(3 papers, 7 citation rows)"
        assert "papers" not in vars(corpus)
        assert repr(validate_corpus([])) == "Corpus(0 papers, 0 citation rows)"


class TestTotals:
    YEAR_BOUNDS = st.one_of(st.none(), st.integers(1955, 2030))

    @given(small_corpora(), YEAR_BOUNDS, YEAR_BOUNDS)
    def test_year_range_sums_match_a_per_paper_loop(self, corpus, ref_year, since):
        expected = [
            sum(
                count
                for year, count in paper.citations
                if (ref_year is None or year <= ref_year) and (since is None or year >= since)
            )
            for paper in corpus.papers
        ]
        assert corpus._totals(ref_year, since).tolist() == expected
        if since is None:
            assert corpus.total_citations(ref_year) == sum(expected)


class TestRankedCitations:
    def test_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            RankedCitations((1, 2))

    def test_must_be_non_negative(self):
        with pytest.raises(ValueError):
            RankedCitations((3, -1))

    @given(
        st.lists(
            st.one_of(st.integers(-3, 6), st.fractions(-3, 6, max_denominator=4)), max_size=8
        ).map(lambda values: sorted(values, reverse=True) if len(values) % 2 else values)
    )
    def test_first_failing_entry_names_the_rule(self, values):
        expected = None
        for i, value in enumerate(values):
            if value < 0:
                expected = "ranked citation values must be non-negative"
            elif i and values[i - 1] < value:
                expected = "ranked citation values must be non-increasing"
            if expected:
                break
        try:
            RankedCitations(tuple(values))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_messages_for_a_rise_after_a_negative_entry(self):
        for values, rule in (((2, -1, 0), "non-negative"), ((Fraction(1, 2), 1), "non-increasing")):
            with pytest.raises(ValueError, match=rule):
                RankedCitations(values)

    def test_rank_access_past_end_is_zero(self):
        c = RankedCitations((6, 3, 2))
        assert c.at(1) == 6
        assert c.at(3) == 2
        assert c.at(4) == 0
        with pytest.raises(IndexError):
            c.at(0)

    def test_from_counts_sorts(self):
        assert RankedCitations.from_counts([2, 6, 3]).values == (6, 3, 2)
