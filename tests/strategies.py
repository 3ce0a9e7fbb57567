"""Hypothesis strategies shared across test modules."""

import itertools

from hypothesis import strategies as st

from cbforms import BlockMultilinearForm, NCPolynomial

coeffs = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                   allow_infinity=False).filter(lambda v: abs(v) >= 1e-3)


def all_keys(d, n, homogeneous=False):
    keys = []
    block_sets = [tuple(range(d))] if homogeneous else [
        bs for m in range(1, d + 1) for bs in itertools.combinations(range(d), m)
    ]
    for blocks in block_sets:
        for indices in itertools.product(range(n), repeat=len(blocks)):
            keys.append((blocks, indices))
    return keys


@st.composite
def small_forms(draw, max_d=3, max_n=3, homogeneous=False, max_terms=6,
                with_constant=True):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(1, max_n))
    keys = all_keys(d, n, homogeneous=homogeneous)
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=max_terms))
    terms = {key: draw(coeffs) for key in chosen}
    constant = draw(coeffs) if with_constant and draw(st.booleans()) else 0.0
    return BlockMultilinearForm(d, n, constant, terms)


@st.composite
def small_words(draw, max_gen=4, max_len=20):
    letters = st.tuples(st.integers(1, max_gen), st.booleans())
    return tuple(draw(st.lists(letters, max_size=max_len)))


@st.composite
def generator_polys(draw, max_gens=3, max_deg=2, max_terms=5, integers=True,
                    first_label=st.just(1)):
    t = draw(st.integers(1, max_gens))
    deg = draw(st.integers(1, max_deg))
    lo = draw(first_label)
    words = list(itertools.product(range(lo, lo + t), repeat=deg))
    chosen = draw(st.lists(st.sampled_from(words), unique=True, min_size=1,
                           max_size=max_terms))
    if integers:
        cf = st.integers(-3, 3).filter(lambda v: v != 0)
    else:
        cf = coeffs
    return NCPolynomial({w: draw(cf) for w in chosen})


@st.composite
def pairing_candidates(draw, max_d=3, max_m=2):
    """(d, m, pairs) for the StarPairing validator: a bicolored perfect
    matching of the 2dm positions (crossing or not), then at most one
    defect: a dropped, repeated, reversed, same-colored, out-of-range or
    float pair.  One case in eight is an arbitrary list of integer pairs
    instead."""
    d = draw(st.integers(1, max_d))
    m = draw(st.integers(1, max_m))
    size = 2 * d * m
    if draw(st.integers(0, 7)) == 0:
        pos = st.integers(-1, size)
        return d, m, tuple(draw(st.lists(st.tuples(pos, pos), max_size=size // 2 + 1)))
    red = [q for q in range(size) if (q // d) % 2 == 0]
    blue = draw(st.permutations([q for q in range(size) if (q // d) % 2 == 1]))
    pairs = sorted((min(a, b), max(a, b)) for a, b in zip(red, blue))
    k = draw(st.integers(0, len(pairs) - 1))
    a, b = pairs[k]
    defect = draw(st.sampled_from(
        ["none", "none", "drop", "repeat", "reverse", "same", "low", "high", "float",
         "half"]))
    if defect == "drop":
        del pairs[k]
    elif defect == "repeat":
        pairs.append((a, b))
    elif defect == "reverse":
        pairs[k] = (b, a)
    elif defect == "same" and len(red) > 1:
        pairs[k] = (red[0], red[-1])
    elif defect == "low":
        pairs[k] = (-1, b)
    elif defect == "high":
        pairs[k] = (a, size)
    elif defect == "float":
        pairs[k] = (float(a), b)
    elif defect == "half":
        pairs[k] = (a, b - 0.5)
    return d, m, tuple(pairs)
