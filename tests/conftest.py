from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# failure seen in CI reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, deadline=None)
