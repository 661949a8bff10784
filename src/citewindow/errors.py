"""Exception hierarchy shared by the whole package.

Everything derives from :class:`CorpusError`, so callers that only care
about "the input data is bad" can catch a single type.  Parser errors
additionally carry a locator (line number or JSON path) so diagnostics
can point at the offending spot in the file.
"""

__all__ = [
    "CorpusError",
    "DuplicateIdError",
    "CitationBeforePublicationError",
    "NegativeCountError",
    "RefYearBeforePublicationError",
    "InvalidRangeError",
    "NoPapersInWindowError",
    "ZeroCitationsError",
    "EmptyCorpusError",
    "IngestError",
    "MalformedHeaderError",
    "UnknownPaperIdError",
    "DuplicateYearRowError",
    "ParseError",
    "SchemaError",
]


class CorpusError(Exception):
    """Base class for all citation-data errors raised by this package."""


class DuplicateIdError(CorpusError):
    def __init__(self, paper_id: str, locator: str | None = None):
        self.paper_id = paper_id
        self.locator = locator
        where = f" ({locator})" if locator else ""
        super().__init__(f"duplicate paper id {paper_id!r}{where}")


class CitationBeforePublicationError(CorpusError):
    def __init__(self, paper_id: str, year: int):
        self.paper_id = paper_id
        self.year = year
        super().__init__(
            f"paper {paper_id!r} has citations in {year}, before its publication year"
        )


class NegativeCountError(CorpusError):
    def __init__(self, paper_id: str, year: int):
        self.paper_id = paper_id
        self.year = year
        super().__init__(f"paper {paper_id!r} has a negative citation count in {year}")


class RefYearBeforePublicationError(CorpusError):
    def __init__(self, paper_id: str, ref_year: int, pub_year: int):
        self.paper_id = paper_id
        self.ref_year = ref_year
        self.pub_year = pub_year
        super().__init__(
            f"reference year {ref_year} precedes publication year {pub_year} "
            f"of paper {paper_id!r}"
        )


class InvalidRangeError(CorpusError):
    """A year range or window-length list does not make sense."""


class NoPapersInWindowError(CorpusError):
    """The publication window selects no papers (impact factor undefined)."""


class ZeroCitationsError(CorpusError):
    """An operation needs at least one citation and got none."""


class EmptyCorpusError(CorpusError):
    """An analysis operation was handed a corpus without papers."""


class IngestError(CorpusError):
    """Base class for wire-format problems; carries a locator string."""

    def __init__(self, message: str, locator: str):
        self.locator = locator
        super().__init__(f"{message} ({locator})")


class MalformedHeaderError(IngestError):
    pass


class UnknownPaperIdError(IngestError):
    def __init__(self, paper_id: str, locator: str):
        self.paper_id = paper_id
        super().__init__(f"citation row references unknown paper id {paper_id!r}", locator)


class DuplicateYearRowError(IngestError):
    def __init__(self, paper_id: str, year: int, locator: str):
        self.paper_id = paper_id
        self.year = year
        super().__init__(f"duplicate citation row for paper {paper_id!r}, year {year}", locator)


class ParseError(IngestError):
    pass


class SchemaError(IngestError):
    pass
