import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis caches the literals of the modules under test on disk even with
# no example database; keep that cache with pytest's own.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).parents[1] / ".pytest_cache" / "hypothesis"),
)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, no example database written to disk.
    settings.register_profile(
        "posetcodes", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("posetcodes")
