"""Golden digests: the engines' exact state after fixed call sequences.

Any change to a pick, a round schedule or a logged op changes a digest, so
a rewrite of a hot path that keeps these passing keeps every construction
bit for bit.
"""

from fractions import Fraction

import pytest

from dendromap.rationals import parity_class
from dendromap.suites import _tau12_engines
from dendromap.tau0 import Tau0Engine

F = Fraction

TAU0_151 = "5dd1a9f5744de41b15a3827880dcdae647607795b720c1bc657e8610341596a5"

TAU12_AFTER_OPS = {
    "arc-fold": "c634a009d306bbd47df40f4d0c08767302554b7bc51a4f857c9aa26578b0cc6e",
    "arc-plain": "74cf0af246b46327646ef2ba7fc12e962d6a693f12a688c48eb08d115d1f67ff",
    "doubleprime-even": "260a8e50009183d5c9243d29341ae79214ae64b59193f5d134419fbec44bfab4",
    "doubleprime-odd": "a389382bcd83e1a7171e0c49afd0c5cffb97e288dd57b669e2652719f81887a9",
    "prime-even": "88b13de981eee3cd50e9215ba5ac480a4a0a7841c1bd9707a6a75f0f1a8ff3ba",
    "prime-odd": "69b2826642d49a59b9da64604569bde87dafcfc065ec128e4e850fa37abd1887",
}


def drive(engine):
    """Rounds, exact reads, preimages, one approximate read, more rounds."""
    engine.ensure_rounds(64)
    lo, hi = engine.domain
    for t in (F(k, 64) for k in range(1, 64, 7)):
        if lo < t < hi:
            engine.eval_exact(t)
    lo2, hi2 = engine.codomain
    for v in (F(k, 32) for k in range(1, 32, 3)):
        if lo2 < v < hi2 and parity_class(v) in engine.target_parity:
            engine.preimages(v)
    engine.eval_approx(lo + (hi - lo) / 5, F(1, 2**40))
    engine.ensure_rounds(70)


def test_tau0_151_rounds():
    engine = Tau0Engine()
    engine.ensure_rounds(151)
    assert engine.state_digest() == TAU0_151


@pytest.mark.parametrize("name", sorted(TAU12_AFTER_OPS))
def test_staged_engine_after_fixed_ops(name):
    engine = _tau12_engines(512)[name]
    drive(engine)
    assert engine.round_count == 70
    assert engine.state_digest() == TAU12_AFTER_OPS[name]
