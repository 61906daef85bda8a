import doctest
import types

import schurlie.derivations
import schurlie.freegroup
import schurlie.freelie
import schurlie.linalg
import schurlie.schur
import schurlie.transfer
import schurlie.words


def test_words_doctests():
    failures, tried = doctest.testmod(schurlie.words)
    assert tried and not failures


def test_derivations_doctests():
    failures, tried = doctest.testmod(schurlie.derivations)
    assert tried and not failures


def test_freegroup_doctests():
    failures, tried = doctest.testmod(schurlie.freegroup)
    assert tried and not failures


def test_freelie_doctests():
    failures, tried = doctest.testmod(schurlie.freelie)
    assert tried and not failures


def test_linalg_doctests():
    failures, tried = doctest.testmod(schurlie.linalg)
    assert tried and not failures


def test_schur_doctests():
    failures, tried = doctest.testmod(schurlie.schur)
    assert tried and not failures


def test_transfer_doctests():
    assert isinstance(schurlie.transfer, types.ModuleType)
    failures, tried = doctest.testmod(schurlie.transfer)
    assert tried and not failures
