"""ENG009 fixture: defs in a package mypy checks strictly."""


class Box:
    def __init__(self, width: int):  # annotated parameter: no -> None
        self.width = width

    @classmethod
    def square(cls, side: int) -> "Box":
        return cls(side)

    def scaled(self, factor):  # fires: factor and return
        return Box(self.width * factor)


def area(box: Box, *extra) -> int:  # fires: *extra
    def inner(value):  # fires: nested defs count too
        return value
    return inner(box.width * box.width)
