"""Algorithm registry: build any of the five methods by name.

The experiment harness and benches refer to algorithms by the names used in the
paper's figures; :func:`make_algorithm` instantiates them with a uniform keyword
interface, forwarding only the parameters each algorithm accepts.
"""

from __future__ import annotations

import inspect
from typing import Any, Type

from repro.baselines.drfa import DRFA
from repro.baselines.fedavg import FedAvg
from repro.baselines.hierfavg import HierFAVG
from repro.baselines.stochastic_afl import StochasticAFL
from repro.core.base import FederatedAlgorithm
from repro.core.hierminimax import HierMinimax
from repro.core.semiasync import SemiAsyncHierMinimax

__all__ = ["ALGORITHMS", "make_algorithm"]

ALGORITHMS: dict[str, Type[FederatedAlgorithm]] = {
    "fedavg": FedAvg,
    "stochastic_afl": StochasticAFL,
    "drfa": DRFA,
    "hierfavg": HierFAVG,
    "hierminimax": HierMinimax,
    "semiasync_hierminimax": SemiAsyncHierMinimax,
}


def _own_keywords(cls: type) -> frozenset[str]:
    """Keyword-only parameters of ``cls.__init__`` and of every ancestor's it
    forwards ``**`` to, up to (not including) :class:`FederatedAlgorithm`."""
    keys: set[str] = set()
    for klass in cls.__mro__:
        if klass is FederatedAlgorithm:
            break
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        params = inspect.signature(init).parameters.values()
        keys |= {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break
    return frozenset(keys)


# The shared construction keywords, and what each algorithm adds to them.
_COMMON_KEYS = frozenset(
    name for name, p in inspect.signature(
        FederatedAlgorithm.__init__).parameters.items()
    if p.kind is p.KEYWORD_ONLY)
_EXTRA_KEYS: dict[str, frozenset[str]] = {
    name: _own_keywords(cls) for name, cls in ALGORITHMS.items()}


def make_algorithm(name: str, dataset, model_factory, **kwargs: Any,
                   ) -> FederatedAlgorithm:
    """Instantiate algorithm ``name`` with only the keywords it understands.

    ``eta_p`` is transparently renamed to ``eta_q`` for the two-layer minimax
    baselines.  ``m_edges`` supplied to a two-layer method is converted to the
    equivalent client count (``m_edges × N0``) so the participation *fraction*
    matches across architectures, as in the paper's comparisons.

    ``dataset`` may also be a :class:`~repro.population.PopulationSpec` (or a
    pre-built population): shape queries then run against its lazy dataset
    view and each call builds a fresh virtual population, so clients are
    derived on demand instead of materialized (see :mod:`repro.population`).
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; options: {sorted(ALGORITHMS)}")
    cls = ALGORITHMS[name]
    extra = _EXTRA_KEYS[name]
    kwargs = dict(kwargs)

    shape = dataset
    if getattr(dataset, "is_population_spec", False):
        # Shape queries (clients_per_edge and friends) live on the lazy view;
        # the spec itself flows through to the constructor, where each
        # algorithm resolves its own fresh VirtualPopulation.
        from repro.population import VirtualPopulation

        shape = VirtualPopulation(dataset).dataset
    elif getattr(dataset, "is_population", False):
        shape = dataset.dataset

    # eta alias: the paper's η_p drives the two-layer baselines' η_q, so one
    # experiment config drives every minimax method.
    if "eta_p" in kwargs and "eta_q" in extra:
        kwargs["eta_q"] = kwargs.pop("eta_p")

    # participation alias: m_edges -> m_clients for flat methods.
    if "m_edges" in kwargs and "m_clients" in extra:
        m_edges = kwargs.pop("m_edges")
        if m_edges is not None and "m_clients" not in kwargs:
            counts = shape.clients_per_edge()
            n0 = counts[0] if len(set(counts)) == 1 else max(
                1, shape.num_clients // shape.num_edges)
            kwargs["m_clients"] = min(shape.num_clients, int(m_edges) * int(n0))

    allowed = _COMMON_KEYS | extra
    filtered = {k: v for k, v in kwargs.items() if k in allowed}
    # Cross-algorithm experiment configs legitimately carry parameters some
    # methods do not use (eta_p for minimization methods, tau1/tau2 for
    # single-step or two-layer ones); drop those silently, raise on typos.
    ignorable = {"eta_p", "eta_q", "tau1", "tau2", "m_edges", "m_clients",
                 "projection_p", "projection_q", "weight_by_data", "staleness"}
    unknown = set(kwargs) - allowed - ignorable
    if unknown:
        raise TypeError(f"{name} does not accept parameters {sorted(unknown)}")
    return cls(dataset, model_factory, **filtered)
