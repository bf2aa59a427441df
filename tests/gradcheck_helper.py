"""Assert-style gradient check shared by the test modules."""

from scdkit.gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, relative_error


def check(build, inputs, tol: float = DEFAULT_TOLERANCE, h: float = DEFAULT_STEP) -> float:
    """Assert-and-return variant of :func:`scdkit.gradcheck.relative_error`."""
    err = relative_error(build, inputs, h=h)
    if not err < tol:
        raise AssertionError(f"gradient check failed: rel. error {err:.3e} >= {tol:.1e}")
    return err
