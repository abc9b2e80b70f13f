"""Property: the input parsers reject bad JSON only with library errors."""

from hypothesis import given, settings
from hypothesis import strategies as st

from realsnf.errors import RealSnfError
from realsnf.matrices import matrix_from_json
from realsnf.ringspec import parse_ring

RING_NAMES = ["Z", "Q[x]", "Zsqrt:2", "Zsqrt:3", "Zhalf:5", "Zhalf:13", "Zsqrt:5", "Zhalf:7"]

ring_texts = st.sampled_from(RING_NAMES) | st.text(max_size=10)
element_texts = st.text(alphabet="0123456789/x^*+-w. ", max_size=12)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | element_texts
    | ring_texts
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["ring", "rows", "cols", "entries", "x", "y"]) | st.text(max_size=4),
        children,
        max_size=4,
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(data=json_values, ring=st.none() | st.sampled_from(RING_NAMES[:6]).map(parse_ring))
def test_matrix_from_json_raises_only_library_errors(data, ring):
    try:
        matrix_from_json(data, ring)
    except RealSnfError:
        pass


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_parse_ring_raises_only_library_errors(data):
    try:
        parse_ring(data)
    except RealSnfError:
        pass
