"""The search kernel's three fixed cases, on every available backend.

Rank-8 isotropic vectors, a rank-4 lagrangian search and a 2 -> 4
embedding search.  Each case is repeated until it has run for at least
`MIN_S` seconds; the result is nodes per second for each (backend, case).
A backend is selected by rebinding ``qwitt.search.search_vectors`` for the
duration of the case only; the binding is restored even when a case raises.
"""

from __future__ import annotations

import contextlib
import time

MIN_S = 0.3


@contextlib.contextmanager
def backend(impl):
    from qwitt import search

    saved = search.search_vectors
    search.search_vectors = impl
    try:
        yield
    finally:
        search.search_vectors = saved


def cases():
    from qwitt import search
    from qwitt.abelian import FinAbGroup
    from qwitt.formparam import split_sum, standard
    from qwitt.qform import (
        QForm,
        _lambda_square_constraint,
        _mu_constraints,
        direct_sum,
        embedding_search,
        full_metabolic,
        hyperbolic,
        metabolic_search,
    )

    qp = standard("Q^+")
    qm = standard("Q-")
    split = split_sum(standard("Q-"), FinAbGroup((4,)))

    # isotropic vectors with mu = 0 in an indefinite rank-8 lattice
    f8 = direct_sum(
        hyperbolic(qp, 2),
        direct_sum(
            QForm(qp, [[1, 0], [0, -1]], [qp.carrier.element((1,)), qp.carrier.element((-1,))]),
            hyperbolic(qp, 1),
        ),
    )
    cons8 = list(_lambda_square_constraint(f8, 0) or []) + _mu_constraints(f8, qp.carrier.zero())

    def isotropic():
        return search.search_vectors(8, cons8, 2, 1 << 30, 1 << 40, True)[1]

    f4 = direct_sum(full_metabolic(split), hyperbolic(split, 0))

    def lagrangian():
        return metabolic_search(f4, bound=3, use_obstructions=False).nodes

    eta = QForm(qm, [[0, 1], [-1, 0]], [qm.carrier.zero(), qm.carrier.element((1,))])
    target = direct_sum(hyperbolic(qm, 1), hyperbolic(qm, 1))

    def embed():
        return embedding_search(eta, target, bound=3).nodes

    return {"isotropic8": isotropic, "lagrangian4": lagrangian, "embed2to4": embed}


def nodes_per_s() -> dict:
    """{backend: {case: nodes per second}}."""
    from qwitt import search

    out = {}
    for name, impl in search.available_backends().items():
        out[name] = {}
        for case, fn in cases().items():
            nodes = 0
            t0 = time.perf_counter()
            with backend(impl):
                while True:
                    nodes += fn()
                    elapsed = time.perf_counter() - t0
                    if elapsed >= MIN_S:
                        break
            out[name][case] = nodes / elapsed
    return out


if __name__ == "__main__":
    import json

    print(json.dumps(nodes_per_s()))
