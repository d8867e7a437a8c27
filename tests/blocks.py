"""Reading a block that Property.vector decides back row by row, for the
tests that inspect what the vector path leaves to the scalar path; and
running every sweep on the scalar path, the oracle."""

import dataclasses
from contextlib import contextmanager
from functools import partial

import pytest

from submult import checks, inequalities, vector


def row_orders(cells):
    """Each row's orders at its cols, or None for a row left wholly to
    compare."""
    for row in cells:
        row = row[row != checks.GAP]
        yield None if (row == vector.UNDECIDED).all() else row


@contextmanager
def scalar_oracle():
    """Within it, every sweep runs on the scalar path: each Property is
    swept with vector=None, and the power comparisons of checks and
    inequalities (as bound there on entry, so a spy on them still sees
    every call) run without their log2 filter, so each point takes the
    exact branch."""
    sweep = checks._sweep
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_sweep", lambda prop, *args: sweep(
            dataclasses.replace(prop, vector=None), *args))
        for module in (checks, inequalities):
            m.setattr(module, "cmp_power_products_detail",
                      partial(module.cmp_power_products_detail, use_filter=False))
        yield
