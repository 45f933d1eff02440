"""Fixtures shared by the test modules."""

import pytest

from fpkproj import reference


@pytest.fixture
def solves(monkeypatch):
    """An empty memo for `reference.ReferenceProblem.solve`, and one entry per
    `solve_fpk` call it makes: the call's result, or None while it runs and
    after it raises."""
    monkeypatch.setattr(reference, "_solved", {})
    calls = []
    solve = reference.solve_fpk

    def counted(*args, **kwargs):
        calls.append(None)
        calls[-1] = solve(*args, **kwargs)
        return calls[-1]

    monkeypatch.setattr(reference, "solve_fpk", counted)
    return calls
