"""Hypothesis strategies shared by the test modules."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from lostructure.distributions import WeightVector

coords = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vectors(dim: int):
    return st.tuples(*[coords] * dim)


@st.composite
def repeated_weight_vectors(draw, dims=(1, 2), max_values=5, max_mult=300):
    """Few distinct entries, each repeated up to max_mult times, in a shuffled
    order: some entries come with their reflection -e, and the zero entry
    may appear among them."""
    dim = draw(st.sampled_from(dims))
    values = draw(st.lists(vectors(dim).filter(any), min_size=1, max_size=max_values, unique=True))
    reflect = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    values += [tuple(-c for c in v) for v, r in zip(values, reflect) if r]
    if draw(st.booleans()):
        values.append((Fraction(0),) * dim)
    mults = draw(st.lists(st.integers(1, max_mult), min_size=len(values), max_size=len(values)))
    entries = [v for v, mult in zip(values, mults) for _ in range(mult)]
    random.Random(draw(st.integers(0, 2**16))).shuffle(entries)
    return WeightVector(dim, tuple(entries))
