"""Hypothesis strategies shared by the fail-closed decoder tests."""

from hypothesis import strategies as st

#: Any value ``json.loads`` can return, NaN and the infinities included,
#: with values that are easy to mishandle (huge, negative, wrong type)
#: drawn often.
JSON_VALUES = st.recursive(
    st.sampled_from(
        [None, True, 0, -1, 10**400, float("nan"), float("-inf"), "x", "", [], {}]
    )
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
