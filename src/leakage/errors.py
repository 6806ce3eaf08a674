"""The package's one exception type.

Bad input (a malformed config, a non-Hermitian matrix, a partition the
spectrum does not admit) raises ``ValueError``.  A computation on valid
input that cannot go on (a gamma outside a bound's regime, a series that
does not converge, a singular Gram matrix) raises :class:`LeakageError`,
as LAPACK raises ``numpy.linalg.LinAlgError``.  The CLI maps the first
to exit 2, the other two to exit 3, and a violated bound to exit 4.
"""


class LeakageError(Exception):
    """A computation on valid input that cannot go on."""
