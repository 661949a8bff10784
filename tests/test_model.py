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
    validate_corpus,
)

# Both ways of building a corpus from records validate the same way.
BUILDERS = (validate_corpus, Corpus)


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
        for build in BUILDERS:
            with pytest.raises(NegativeCountError):
                build([PaperRecord("P", 2000, {2001: -2})])

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
