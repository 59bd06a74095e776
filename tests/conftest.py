"""Test-wide settings: one hypothesis profile for every property test."""

from hypothesis import settings

# Examples run whole kernels, and some take longer than hypothesis's default
# 200 ms deadline; each test bounds its cost by its strategies and max_examples.
settings.register_profile("hdp-lab", deadline=None)
settings.load_profile("hdp-lab")
