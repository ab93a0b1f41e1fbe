import os

import pytest

# pin BLAS threading before numpy loads anywhere, for bitwise-stable runs
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

# the platform_key() that every bit-level pin of this suite was taken on
PINNED_ON = "numpy 2.4.6 / X86_V4 / SkylakeX"


@pytest.fixture
def pinned_on() -> str:
    """Failure note for a bit-level pin: the arithmetic it was taken on, and this host's."""
    from infogan_lab.autodiff import platform_key

    return f"pinned on {PINNED_ON}; this host runs {platform_key()}"
