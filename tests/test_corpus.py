import hashlib

import pytest

from widthlab import DomainError, SizeLimitExceeded
from widthlab import corpus as corpus_mod
from widthlab.corpus import chordal_corpus, random_corpus, run_corpus, tree_corpus
from widthlab.graph import Graph, complete, path, serialize_edge_list
from widthlab.separators import MIN_SEPARATOR_CAP

CORPORA = {
    "random": random_corpus,
    "tree": tree_corpus,
    "chordal": lambda count, n_max, seed: chordal_corpus(count, n_max, 3, seed),
}


def _digest(corpus) -> str:
    h = hashlib.sha256()
    for label, g in corpus:
        h.update(f"{label}\n{serialize_edge_list(g)}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("corpus, digest", [
    (lambda: random_corpus(200, 10, 1),
     "c2de62315f8f8e7f05db71b9f1a0983d92cd04c65c364a3503db9db4c1d3cb3e"),
    (lambda: tree_corpus(100, 12, 2),
     "c14e46e47b31393ae19cd681caa3e7ad545c5adecc9d6018d6f067a9906050d8"),
    (lambda: chordal_corpus(100, 12, 3, 1),
     "d16584cdeb09a820758a4de59b2b46e43c545157dbf2eb7573c44a3264a951f9"),
    (lambda: random_corpus(30, 2, 7),
     "7e0f518bd50e150fefef046e310a05c645b6333dc1dff2f22aea4f75b980a109"),
], ids=["random", "tree", "chordal", "random-n2"])
def test_corpora_are_pinned(corpus, digest):
    # Every label and graph of the acceptance corpora (and of the smallest
    # n_max) is pinned, so the seeded draws stay in their documented order.
    assert _digest(corpus()) == digest


@pytest.mark.parametrize("family", CORPORA)
@pytest.mark.parametrize("count, n_max", [(-1, 10), (3, 1), (0, 0), (0, -5)])
def test_corpus_lower_bounds_are_refused(monkeypatch, family, count, n_max):
    def drawn(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    for name in ("random_graph", "random_tree", "random_chordal"):
        monkeypatch.setattr(corpus_mod, name, drawn)
    message = f"corpus needs count >= 0 and n_max >= 2, got count = {count}, n_max = {n_max}"
    with pytest.raises(DomainError) as exc:
        CORPORA[family](count, n_max, 1)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        run_corpus(count, n_max, 1)
    assert str(exc.value) == message


@pytest.mark.parametrize("family", CORPORA)
def test_corpus_at_its_lower_bounds(family):
    assert CORPORA[family](0, 2, 1) == []
    assert {g.n for _, g in CORPORA[family](20, 2, 1)} == {2}


@pytest.mark.parametrize("g", [Graph(0), Graph(1), path(7), complete(6)])
def test_padding_check_holds_from_n_0(g):
    assert corpus_mod.check_padding_preserves_balance(g) is True


def test_padding_check_keeps_the_min_separator_cap():
    with pytest.raises(SizeLimitExceeded):
        corpus_mod.check_padding_preserves_balance(Graph(MIN_SEPARATOR_CAP + 1))
