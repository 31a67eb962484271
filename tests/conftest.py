"""Test-session setup shared by every test file.

The "ci" hypothesis profile is registered and loaded here, once, before
any test module is imported: every ``@given`` test runs 40 examples with
no deadline, whichever files a run collects.  A test that needs other
settings says so with its own ``@settings``.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=40, deadline=None)
settings.load_profile("ci")
