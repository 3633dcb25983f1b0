import dataclasses

import pytest

from geomseries.planner import AutoPlanner, plan
from geomseries.slp import eval_poly_oracle


@pytest.fixture(scope="session")
def auto_planner():
    # stateless: the factor-split memo lives on the default cost model
    return AutoPlanner()


def small_chain(p: int):
    """The hand-tuned chain for p in chains.SMALL_SIZES as a finished program.

    A prime power with exponent 1 is that chain itself.
    """
    return plan(p, f"prime:{p}").program


def polynomial_of_register(program, register: int):
    """Exact polynomial held by an arbitrary register of a program."""
    return eval_poly_oracle(dataclasses.replace(program, output=register))


def brute_series(n: int, x):
    """Independent oracle: literal sum of the first n powers."""
    total = x**0
    for k in range(1, n):
        total = total + x**k
    return total


def poly_mul(a: list, b: list) -> list:
    """Schoolbook convolution over exact ints (test-side reference)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


def poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out
