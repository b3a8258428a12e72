"""ENG009 fixture: the same untyped defs outside the strict scope."""


def area(box, *extra):
    return box.width * box.width
