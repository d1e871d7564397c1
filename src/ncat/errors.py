"""Exception types shared across the package.

Everything raised on bad *input* derives from NCatError so callers (the CLI
in particular) can distinguish "your data is wrong" from genuine bugs.
"""


class NCatError(Exception):
    """Base class for all errors raised on invalid input or invalid calls."""


class ConstraintViolation(NCatError):
    """A cell fails one of its structural constraints.

    ``level`` names the spine level at which the violation occurred
    (``None`` for violations not tied to a single level, e.g. a negative
    head entry).
    """

    def __init__(self, message, level=None):
        super().__init__(message if level is None else f"level {level}: {message}")
        self.level = level
        self.reason = message


class NotComposable(NCatError):
    """compose(p, A, C) was called on a pair that does not match at depth p."""

    def __init__(self, p, detail=""):
        msg = f"not composable at p={p}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.p = p


class InvalidArguments(NCatError):
    """Arguments are structurally wrong (level mismatch, p out of range)."""


class NoSource(NCatError):
    """source/target was asked of a level-0 cell."""


class SchemaError(NCatError):
    """A flow-data document violates the input schema.

    ``path`` locates the offending value, e.g. ``$.moduli[2].dim``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class UnknownId(NCatError):
    """A flow-data document references an id that was never declared."""

    def __init__(self, path, ident):
        super().__init__(f"{path}: unknown id {ident!r}")
        self.path = path
        self.ident = ident


class DuplicateId(NCatError):
    """The same id is declared twice in one flow-data document."""

    def __init__(self, path, ident):
        super().__init__(f"{path}: duplicate id {ident!r}")
        self.path = path
        self.ident = ident


class UnknownAtom(NCatError):
    """An index lookup hit a label whose atom is not in the environment."""

    def __init__(self, ident):
        super().__init__(f"no index registered for atom {ident!r}")
        self.ident = ident


class FlowDataInconsistent(NCatError):
    """Flow data that parsed cleanly cannot be read as cells.

    Raised when flow data produces an index tuple that w_make rejects
    (the underlying ConstraintViolation is chained as __cause__), and
    when a moduli space does not sit over a space one level down.
    """
