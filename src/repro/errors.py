"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so client
code can catch a single type.  More specific subclasses indicate the layer in
which the problem occurred (parsing, query construction, engine evaluation,
rewriting).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ParseError(ReproError):
    """Raised when the datalog text parser cannot interpret its input.

    Attributes
    ----------
    text:
        The full input text being parsed.
    position:
        The character offset at which the error was detected (or ``None``).
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        super().__init__(message)
        self.text = text
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        location = self.location()
        if location is None:
            return base
        line, col = location
        return f"{base} (line {line}, column {col})"

    def location(self) -> "tuple[int, int] | None":
        """The 1-based ``(line, column)`` of the error, when known."""
        if self.position is None or not self.text:
            return None
        line = self.text.count("\n", 0, self.position) + 1
        last_newline = self.text.rfind("\n", 0, self.position)
        col = self.position - last_newline
        return line, col

    def caret_context(self, max_width: int = 78) -> "str | None":
        """The offending source line with a caret under the error column.

        Returns ``None`` when no position is attached.  Long lines are
        windowed around the error so the caret always fits in ``max_width``
        columns.
        """
        location = self.location()
        if location is None:
            return None
        line_no, col = location
        lines = self.text.splitlines()
        # An at-end-of-input position on newline-terminated text points one
        # line past the last: caret an empty line rather than crash.
        source_line = lines[line_no - 1] if line_no <= len(lines) else ""
        caret_index = min(col - 1, len(source_line))
        start = 0
        if caret_index >= max_width:
            start = caret_index - max_width // 2
        window = source_line[start : start + max_width]
        if start > 0:
            window = "..." + window[3:]
        return f"{window}\n{' ' * (caret_index - start)}^"


class QueryConstructionError(ReproError):
    """Raised when a query, view or atom is built from inconsistent parts."""


class UnsafeQueryError(QueryConstructionError):
    """Raised for unsafe queries (head or comparison variables not bound in the body)."""


class SchemaError(ReproError):
    """Raised when relations are used with inconsistent arities."""


class EvaluationError(ReproError):
    """Raised by the engine when a query cannot be evaluated."""


class RewritingError(ReproError):
    """Raised when a rewriting request is malformed (e.g. unknown algorithm)."""


class MaterializationError(ReproError):
    """Raised by the materialized-view store (delta application, maintenance)."""


class ConstraintViolationError(ReproError):
    """Raised when attached data violates a catalog integrity constraint.

    Carries the names of the violated (denial) constraints in ``violated``.
    """

    def __init__(self, message: str, violated: "tuple[str, ...]" = ()):
        super().__init__(message)
        self.violated = tuple(violated)


class StorageError(ReproError):
    """Raised by the persistence layer (:mod:`repro.storage`).

    Covers backend failures (unsupported values or relation names, closed
    backends), write-ahead-log problems and snapshot problems.  The two
    recovery-relevant corruption cases carry their own subclasses below so
    callers can distinguish "repairable tail damage" from "unusable file".
    """


class WalCorruptionError(StorageError):
    """Raised when a write-ahead log is damaged beyond tail repair.

    Torn tails and CRC-corrupt trailing records are *not* errors — recovery
    truncates them cleanly (see :meth:`repro.storage.wal.WriteAheadLog.replay`).
    This is raised only when the file itself is unrecognizable (bad magic),
    or when a corrupt record is found while repair is disabled.
    """


class SnapshotError(StorageError):
    """Raised when a snapshot file is unreadable (bad magic, short, CRC).

    Recovery treats this as "snapshot missing": it falls back to an older
    snapshot or a full WAL replay rather than crashing (see
    :meth:`repro.storage.StorageManager.recover`).
    """


class UnsupportedFeatureError(ReproError):
    """Raised when an algorithm is asked to handle a feature it does not support.

    For example the MiniCon implementation rejects queries with comparison
    predicates in positions it cannot reason about soundly.
    """
