"""Exception hierarchy shared across the package.

The CLI maps these onto its exit codes: ParseError and GraphError exit 3,
SolverError and UndefinedIndexError exit 4, and InputError, like any other
InfoRankError, exits 2. A new error condition subclasses the class whose
exit code it should have, rather than raising a bare ValueError.
"""


class InfoRankError(Exception):
    """Base class for all package errors."""


class ParseError(InfoRankError):
    """Malformed input file (carries a line number when available)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphError(InfoRankError):
    """Structurally invalid graph input (self-loops, bad indices, empty input)."""


class InputError(InfoRankError):
    """Semantically invalid numeric input (infeasible degrees, negative weights...)."""


class SolverError(InfoRankError):
    """Iterative solve failed to converge; carries diagnostics."""

    def __init__(self, message: str, residual: float | None = None,
                 iterations: int | None = None, node: int | None = None):
        self.residual = residual
        self.iterations = iterations
        self.node = node
        parts = [message]
        if node is not None:
            parts.append(f"node={node}")
        if residual is not None:
            parts.append(f"residual={residual:.3e}")
        if iterations is not None:
            parts.append(f"iterations={iterations}")
        super().__init__(" ".join(parts))


class UndefinedIndexError(InfoRankError):
    """Ranking index is undefined (fully deterministic benchmark ensemble)."""
