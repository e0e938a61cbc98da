"""Shared pytest set-up: a fixed hypothesis profile.

``derandomize`` draws the same examples on every run and ``database=None``
keeps no example store between runs, so the property suite is as
deterministic as the rest of the tests; ``deadline=None`` keeps a slow
machine from failing an example on time alone.
"""

import warnings

from hypothesis import settings

settings.register_profile("sqss", derandomize=True, database=None, deadline=None)
settings.load_profile("sqss")

# On a failing example hypothesis imports its patch writer, which imports
# black when installed; black's import raises a DeprecationWarning, and the
# ``filterwarnings = error`` setting would turn the failure report into an
# INTERNALERROR that ends the whole session.  Import it here, once, with that
# warning silenced, so a failing property reports as an ordinary failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
