"""Differential test: the columnar byte-window codec is ``HeaderType``.

Every header field the columnar dataplane reads or writes goes through
one codec per field (``repro.dp.columnar._make_recipe``): a field of up
to 64 bits is one <= 8-byte big-endian window, a byte-aligned 128-bit
field two.  On random header layouts -- fields of 1..64 bits at any
bit offset, byte-aligned 128-bit fields, the header at any byte offset
in the packet -- an extract must equal ``HeaderType.unpack`` row by
row, and a scatter must leave ``unpack`` reading the written value
masked to the field width (values wider than the field included) with
every other field of the header and every byte outside the field's
window unchanged.  ``rows`` is both the whole column and an index array.
A field whose window would span more than 8 bytes has no codec.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import columnar
from repro.net.headers import FieldDef, HeaderType

np = pytest.importorskip("numpy")


@st.composite
def layouts(draw):
    """A header type, its byte offset in the packet, and packet rows."""
    fields = []
    bits = 0
    for i in range(draw(st.integers(1, 8))):
        if bits % 8 == 0 and draw(st.integers(0, 4)) == 0:
            width = 128
        else:
            width = draw(st.sampled_from(
                [1, 3, 8, 13, 16, 24, 31, 48, 57, 64, draw(st.integers(1, 64))]
            ))
        fields.append(FieldDef(f"f{i}", width))
        bits += width
    htype = HeaderType("h", fields)
    off = draw(st.integers(0, 5))
    size = off + htype._fixed_bytes + draw(st.integers(0, 3))
    rows = draw(st.lists(st.binary(min_size=size, max_size=size),
                         min_size=1, max_size=12))
    return htype, off, rows


def _unpack(htype, off, mat):
    return [htype.unpack(bytes(row), off * 8)[0] for row in mat]


def _as_ints(col):
    if isinstance(col, tuple):
        hi, lo = col
        return [(h << 64) | low for h, low in zip(hi.tolist(), lo.tolist())]
    return col.tolist()


def _window(htype, off, name):
    """The byte range ``[first, last]`` the field occupies."""
    for fname, shift, _mask, width in htype._layout:
        if fname == name:
            start = off * 8 + htype.fixed_bits - shift - width
            return start // 8, (start + width - 1) // 8
    raise KeyError(name)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layouts(), st.data())
def test_extract_and_scatter_match_the_header_type(layout, data):
    htype, off, rows = layout
    mat = np.array([list(row) for row in rows], np.uint8)
    m = mat.shape[0]
    recipes = columnar._chain_recipes(np, [("h", htype, off, 0)])
    before = _unpack(htype, off, mat)
    for fdef in htype.fields:
        first, last = _window(htype, off, fdef.name)
        recipe = recipes[f"h.{fdef.name}"]
        if recipe is None:  # a window past 8 bytes: its users peel
            assert fdef.width <= 64 and last - first + 1 > 8
            continue
        extract, scatter, width = recipe
        assert width == fdef.width
        assert _as_ints(extract(mat)) == [v[fdef.name] for v in before]
        picked = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)))),
                          np.int64)
        assert _as_ints(extract(mat, picked)) == [
            before[r][fdef.name] for r in picked.tolist()
        ]

        # Write random values (often wider than the field) through the
        # whole column or through an index array.
        target = data.draw(st.sampled_from([columnar._ALL, picked]))
        written = list(range(m)) if target is columnar._ALL else picked.tolist()
        cap = 1 << (128 if width > 64 else 64)
        wanted = [data.draw(st.integers(0, cap - 1)) for _ in written]
        if width > 64:
            values = (
                np.array([v >> 64 for v in wanted], np.uint64),
                np.array([v & ((1 << 64) - 1) for v in wanted], np.uint64),
            )
        else:
            values = np.array(wanted, np.uint64)
        out = mat.copy()
        scatter(out, values, target)

        outside = np.ones(mat.shape[1], bool)
        outside[first:last + 1] = False
        assert (out[:, outside] == mat[:, outside]).all()
        after = _unpack(htype, off, out)
        for r in range(m):
            expect = dict(before[r])
            if r in written:
                value = wanted[written.index(r)]
                expect[fdef.name] = value & ((1 << width) - 1)
            assert after[r] == expect
