from hypothesis import settings

# every property test draws the same examples on every run; tests that set
# their own max_examples keep it
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
