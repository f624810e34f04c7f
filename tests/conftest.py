"""Shared fixtures: built-in scenarios, cached pipeline runs, and a small
synthetic scenario whose measurement update actually fires."""

from __future__ import annotations

import numpy as np
import pytest

from smobserver.generators import ShapeGenerator, SignalGenerator, Term
from smobserver.pipeline import build_design, run_algorithm1
from smobserver.scenario import ScenarioConfig, example1, example2


def make_mixed_scenario(horizon: float = 10.0) -> ScenarioConfig:
    """Two-state system: x1 strongly observable through y1, x2 weakly
    unobservable (the input can cancel it in y2) yet visible in C2, so the
    measurement update engages every step."""
    cw = SignalGenerator(components=((Term(kind="sin", amp=0.3, freq=1.0),),))
    Kw = ShapeGenerator(kind="const", matrix=np.array([[0.5]]))
    w_true = SignalGenerator(components=((
        Term(kind="sin", amp=0.3, freq=1.0),
        Term(kind="sin", amp=0.5, freq=0.7),
    ),))
    return ScenarioConfig(
        name="mixed",
        A=np.array([[-1.0, 0.0], [0.2, -2.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0], [0.0, 1.0]]),
        D=np.array([[0.0], [0.5]]),
        xhat0=np.array([0.1, -0.2]),
        K0=0.05 * np.eye(2),
        cw=cw, Kw=Kw, w_true=w_true,
        dt=0.1, horizon=horizon,
        uio_poles=(-2.0,))


def make_mixed3_scenario(horizon: float = 1.0) -> ScenarioConfig:
    """The mixed system with a two-state weak block: x1 strongly observable
    through y1, and each of x2, x3 hidden from its own output by its own
    input, yet visible in C2, so the update engages every step."""
    def sines(*terms):
        return tuple(tuple(Term(kind="sin", amp=a, freq=f) for a, f in row)
                     for row in terms)
    return ScenarioConfig(
        name="mixed3",
        A=np.array([[-1.0, 0.0, 0.0], [0.2, -2.0, 0.1], [0.1, 0.3, -1.5]]),
        B=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        C=np.eye(3),
        D=np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]),
        xhat0=np.array([0.1, -0.2, 0.05]),
        K0=0.05 * np.eye(3),
        cw=SignalGenerator(components=sines(((0.3, 1.0),), ((0.2, 0.5),))),
        Kw=ShapeGenerator(kind="const", matrix=0.5 * np.eye(2)),
        w_true=SignalGenerator(components=sines(((0.3, 1.0), (0.5, 0.7)),
                                                ((0.2, 0.5),))),
        dt=0.1, horizon=horizon,
        uio_poles=(-2.0,))


@pytest.fixture(scope="session")
def cfg_ex1():
    return example1()


@pytest.fixture(scope="session")
def cfg_ex2():
    return example2()


@pytest.fixture(scope="session")
def cfg_mixed():
    return make_mixed_scenario()


@pytest.fixture(scope="session")
def design_ex1(cfg_ex1):
    return build_design(cfg_ex1)


@pytest.fixture(scope="session")
def design_ex2(cfg_ex2):
    return build_design(cfg_ex2)


@pytest.fixture(scope="session")
def run_ex1(cfg_ex1, design_ex1):
    return run_algorithm1(cfg_ex1, design=design_ex1)


@pytest.fixture(scope="session")
def run_ex2(cfg_ex2, design_ex2):
    return run_algorithm1(cfg_ex2, design=design_ex2)


@pytest.fixture(scope="session")
def run_mixed(cfg_mixed):
    return run_algorithm1(cfg_mixed)
