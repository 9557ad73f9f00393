import sys

import numpy as np
import pytest


def dense_plan(plan):
    """The (n, m) matrix of a plan's support, for tests that compare dense layouts."""
    full = np.zeros(plan.shape)
    full[plan.rows, plan.cols] = plan.mass
    return full


@pytest.fixture
def count_calls(monkeypatch):
    """Spy on a kdvlab function under every name a kdvlab module holds it by.

    ``count_calls(func)`` returns a list that receives the positional
    arguments of each call, so a test sees a re-solve or a re-sample through
    whichever module reaches the function.
    """

    def install(func):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "kdvlab" and getattr(module, func.__name__, None) is func:
                monkeypatch.setattr(module, func.__name__, spy)
        return calls

    return install
