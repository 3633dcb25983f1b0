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


def poly_mul(a, b) -> list:
    """Schoolbook convolution over exact ints (test-side reference).

    Loops over the nonzeros of the sparser factor: the factors of long
    series plans are mostly zeros.
    """
    nza = [(i, c) for i, c in enumerate(a) if c]
    nzb = [(j, d) for j, d in enumerate(b) if d]
    if len(nzb) < len(nza):
        nza, nzb = nzb, nza
    out = [0] * (len(a) + len(b) - 1)
    for i, c in nza:
        for j, d in nzb:
            out[i + j] += c * d
    return out


def poly_add(a, b) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


class NaivePoly(tuple):
    """The naive reference ring for the packed oracle: integer coefficients
    indexed by degree, trailing zeros trimmed, so a value equals the tuple
    that ``eval_poly_oracle`` returns for the same polynomial."""

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, cs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def all_ones(cls, n: int):
        return cls((1,) * n)

    def __add__(self, other):
        return NaivePoly(poly_add(self, other))

    def __sub__(self, other):
        return NaivePoly(poly_add(self, [-c for c in other]))

    def __mul__(self, other):
        return NaivePoly(poly_mul(self, other))
