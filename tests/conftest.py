"""Fixtures shared by several test modules."""

import dataclasses

import pytest

from unicom import gradcheck


@pytest.fixture
def flipped_gradient(monkeypatch):
    """Make the gradient checker see an embedding gradient of the wrong sign."""
    backward = gradcheck.selection_backward

    def flipped(*args):
        out = backward(*args)
        return dataclasses.replace(out, grad_embeddings=-out.grad_embeddings)

    monkeypatch.setattr(gradcheck, "selection_backward", flipped)
