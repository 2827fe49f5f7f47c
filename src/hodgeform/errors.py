"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical routine failed its own certificate.

    Raised when a computed quantity fails a certificate it is required to
    pass: a harmonic basis whose normal matrix is numerically singular,
    whose Gram matrix leaves the float range, whose projected cocycles are
    numerically dependent or whose harmonicity residual is too large, or a
    spectral gap at most the tolerance (the first nonzero eigenvalue lambda
    of Delta_k over its Gershgorin scale; when it is that small, the
    harmonicity residual bounds a basis vector's w-distance from the
    harmonic cochains only loosely, dist_w <= ||Delta h||_w / lambda).  The
    Betti numbers and basis sizes come from the exact reduction, so no
    dimension is numerical.  A degenerate intersection form is exact and is
    reported, not raised.  Distinct from ``ValueError`` so callers can map it to the
    "internal numerical failure" exit path.
    """
