"""Exception types shared across the package, and the self-check that raises one."""


class GraphonHamError(Exception):
    """Base class for all package errors."""

    def as_dict(self) -> dict:
        """Type, message, and the instance's own fields (`position`, `vertex`)."""
        fields = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        return {"type": type(self).__name__, "message": str(self), **fields}


class FormatError(GraphonHamError):
    """Malformed input file or payload; carries the offending position."""

    def __init__(self, message: str, position: str | None = None):
        self.position = position
        super().__init__(message if position is None else f"{position}: {message}")


class EnumerationCapExceeded(GraphonHamError):
    """An exact scan past `ENUMERATION_CAP`: split components to flip, or cut-norm blocks."""


class NotBinaryTree(GraphonHamError):
    """Input is not a tree with one degree-2 root, degree-3 internals, degree-1 leaves."""


class GreedyStuck(GraphonHamError):
    """A low-degree vertex had fewer than two fresh neighbors available."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has fewer than 2 fresh neighbors")


class BipartiteOrDisconnected(GraphonHamError):
    """Odd-walk construction requires a connected non-bipartite graph."""


class TypesMissing(GraphonHamError):
    """Operation needs the latent vertex types, which this graph does not carry."""


class InvariantViolation(GraphonHamError):
    """An internal consistency check failed: a bug, never a property of the input."""


def _self_checked(obj, *args):
    """`obj.validate(*args)` for an object the package built itself, then obj.

    `validate` raises AssertionError for a bad object a caller passes in; on
    the package's own output the same failure is a bug.
    """
    try:
        obj.validate(*args)
    except AssertionError as exc:
        raise InvariantViolation(f"self-check of {type(obj).__name__} failed: {exc}") from exc
    return obj
