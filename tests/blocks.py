"""Reading a block that Property.vector decides back row by row, for the
tests that inspect what the vector path leaves to the scalar path."""

from submult import checks, vector


def row_orders(cells):
    """Each row's orders at its cols, or None for a row left wholly to
    compare."""
    for row in cells:
        row = row[row != checks.GAP]
        yield None if (row == vector.UNDECIDED).all() else row
