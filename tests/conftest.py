"""Test-wide fixtures."""

import pytest

from freecomm import commensurator
from freecomm.errors import FreecommError


@pytest.fixture(autouse=True, scope="session")
def validate_internal_isos():
    """Check every isomorphism the library builds inside against make_iso.

    _iso trusts its callers (the images generate the codomain, both sides
    have finite index); here each result is rebuilt through the full
    validator, so a constructor that broke that trust fails the test that
    reached it.  A rejection by make_iso becomes an AssertionError rather
    than the error the library would raise, so the wrapper only checks
    and never changes what a test sees.
    """
    built = commensurator._iso

    def checked(domain, images, codomain=None):
        phi = built(domain, images, codomain)
        try:
            rebuilt = commensurator.make_iso(phi.domain, phi.codomain, phi.images)
        except FreecommError as exc:
            raise AssertionError(f"_iso accepted what make_iso rejects: {exc}") from exc
        assert rebuilt == phi, "_iso and make_iso built different maps"
        return phi

    commensurator._iso = checked
    yield
    commensurator._iso = built
