"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical routine failed its own certificate.

    Raised when a computed quantity fails a certificate it is required to
    pass: a harmonic basis whose normal matrix is numerically singular,
    whose Gram matrix leaves the float range, whose projected cocycles are
    numerically dependent or whose harmonicity residual is too large, or a
    spectral gap at most the tolerance (the numerical nullspace would not
    have dimension b_k).  A degenerate intersection form is exact and is
    reported, not raised.  Distinct from ``ValueError`` so callers can map it to the
    "internal numerical failure" exit path.
    """
