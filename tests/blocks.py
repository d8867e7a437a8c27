"""Deciding a block of a Property as its sweep does and reading it back
row by row, for the tests that inspect what the vector path leaves to the
scalar path; the memory a block's Python ints are sized at; and running
every sweep on the scalar path, the oracle."""

import dataclasses
from contextlib import contextmanager
from functools import partial

import pytest

from submult import checks, core, inequalities, vector


def block(prop, rows):
    """The orders the sweep's block function gives the rows of prop (a run
    of its first axis) at every col."""
    return checks._block(prop, rows, checks._col_coords(checks._cols(prop)))


def row_orders(cells):
    """Each row's orders at its cols, or None for a row left wholly to
    compare."""
    for row in cells:
        row = row[row != checks.GAP]
        yield None if (row == vector.UNDECIDED).all() else row


class _Needs(list):
    """A memory budget that admits every need compared with it, and keeps
    each."""

    def __lt__(self, need):  # need > budget
        self.append(need)
        return False


def block_need(decide, *args) -> float:
    """The memory vector's rule sizes the Python ints of decide(*args) at:
    the largest need it compares with the budget while deciding the
    block, so that a budget below it raises vector.Unproven and one at it
    does not; 0 when the block holds none."""
    needs = _Needs()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "memory_budget", lambda: needs)
        decide(*args)
    return max(needs, default=0)


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
