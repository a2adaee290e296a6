"""The declared-shape walker behind every JSON artifact validator."""

import pytest

from repro.core import shape

POINT = shape.Obj(
    name=shape.NAME,
    at=shape.Pair(),
    tags=shape.MapOf(shape.COUNT),
    note=shape.Nullable(shape.STR),
    kind=shape.Literal("a", "b"),
    extra=shape.BOOL,
    optional=("extra",),
)
GOOD = {"name": "p", "at": [0.0, 1.0], "tags": {"x": 1}, "note": None, "kind": "a"}


@pytest.mark.parametrize(
    "spec, value, message",
    [
        (shape.COUNT, 0, None),
        (shape.COUNT, -1, "must be an integer >= 0, got -1"),
        (shape.COUNT, 1.0, "must be an integer >= 0, got 1.0"),
        (shape.COUNT, True, "must be an integer >= 0, got True"),
        (shape.COUNT, 10**400, None),
        (shape.FINITE, float("inf"), "must be a finite number, got inf"),
        (shape.FRACTION, 1, None),
        (shape.PROBABILITY, 1.0, "must be a finite number in (0, 1), got 1.0"),
        (shape.POSITIVE, 0.0, "must be a finite number > 0, got 0.0"),
        (shape.NAME, "", "must be a non-empty string, got ''"),
        (shape.Literal(True), 1, "must be True, got 1"),
        (shape.Literal("a", "b"), "c", "must be ['a', 'b'], got 'c'"),
        (shape.ListOf(shape.STR, nonempty=True), [], "must be a non-empty list, got []"),
        (shape.Pair(), [2.0, 1.0], "must be an ordered [lo, hi] pair, got [2.0, 1.0]"),
        (shape.MapOf(shape.INT), {1: 2}, "keys must be strings, got 1"),
        (POINT, GOOD, None),
        (POINT, dict(GOOD, extra=False), None),
        (POINT, [GOOD], "must be an object, got list"),
        (POINT, dict(GOOD, more=1), "more is not a declared key"),
        (POINT, {k: v for k, v in GOOD.items() if k != "note"}, "note is missing"),
        (POINT, dict(GOOD, at=[0.0, "x"]), "at[1] must be a finite number, got 'x'"),
        (POINT, dict(GOOD, tags={"x": {"y": 1}}), "tags.x must be an integer >= 0, got dict"),
    ],
)
def test_walk_accepts_or_names_the_failing_path(spec, value, message):
    if message is None:
        shape.check_shape(spec, value, "invalid doc")
    else:
        with pytest.raises(ValueError) as caught:
            shape.check_shape(spec, value, "invalid doc")
        assert str(caught.value) == f"invalid doc: {message}"
