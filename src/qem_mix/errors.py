"""Exception hierarchy shared by all qem_mix modules.

Each error type carries ``exit_code``, the status the CLI exits with when
the error ends a command.
"""


class QemError(Exception):
    """Base class for all qem_mix errors."""

    exit_code = 2


class DimensionError(QemError):
    """Bit-string lengths disagree (between strings, or with a dataset's n)."""

    exit_code = 2


class ParseError(QemError):
    """Malformed input file content."""

    exit_code = 2


class EmptyDatasetError(QemError):
    """A dataset with zero shots was requested or read."""

    exit_code = 2


class InfeasibleError(QemError):
    """Parameter combination cannot be satisfied (e.g. K > 2**n)."""

    exit_code = 1


class AllFilteredError(QemError):
    """The depolarization filter removed every shot."""

    exit_code = 3


class DegenerateModelError(QemError):
    """Every mixture component was annihilated; no model survives."""

    exit_code = 3


class InvalidModelError(QemError):
    """A mixture model violates its own invariants (e.g. all-zero weights)."""

    exit_code = 3


class NormalizationError(QemError):
    """A probability distribution is not normalized or has negative mass."""

    exit_code = 2
