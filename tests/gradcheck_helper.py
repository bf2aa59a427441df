"""Assert-style gradient check shared by the test modules."""

from scdkit.gradcheck import TOLERANCE, relative_error


def check(build, inputs) -> float:
    """Assert-and-return variant of :func:`scdkit.gradcheck.relative_error`."""
    err = relative_error(build, inputs)
    if not err < TOLERANCE:
        raise AssertionError(f"gradient check failed: rel. error {err:.3e} >= {TOLERANCE:.1e}")
    return err
