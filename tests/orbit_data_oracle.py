"""The orbit read-off that schurlie.schur.orbit_data_of_column replaced, kept
verbatim as an oracle, used by the tests only.

It computes a key for every word of the column and counts each key's words
against the length of its orbit; the new read-off computes one key per orbit
and walks the orbit, and must return the same row or raise the same error.
"""

from schurlie.errors import InternalInvariantError
from schurlie.schur import _long_runs, _orbit


def orbit_data_of_column(u, col):
    """Read orbit coefficients off a tensor that must be stabilizer-invariant.

    The key of a word w is stabilizer_orbit_key(u, w): w with its letters
    sorted inside each run of two or more equal letters of u (_long_runs,
    cached per u).  A key's value must be the same on each of its words, and
    the words must number len(_orbit(u, key)), the whole orbit."""
    runs = _long_runs(u)
    row = {}
    count = {}
    for w, c in col._coeffs.items():
        key = w
        if runs:
            key = list(w)
            for run in runs:
                key[run] = sorted(key[run])
            key = tuple(key)
        if row.setdefault(key, c) != c:
            raise InternalInvariantError(
                f"column at {u!r} is not constant on stabilizer orbits")
        count[key] = count.get(key, 0) + 1
    for key, k in count.items():
        if len(_orbit(u, key)) != k:
            raise InternalInvariantError(
                f"column at {u!r} misses part of the orbit of {key!r}")
    return row
