"""Golden trajectory digests: every algorithm under every layer preset.

Each cell runs a small seeded training run and hashes, after every round,

* the global model ``w`` and the mixing weights (``p``/``q``) as raw bytes,
* the communication ledger (sorted cycles / messages / floats),
* ``repr`` of the cumulative simulated time, and
* the sorted ``(kind, fields)`` of the round's ``fault``, ``defense`` and
  ``membership`` trace events (captured as emitted, before any trace writer
  would stamp them with a wall-clock time).

The digests were captured before the algorithms were rebuilt on the shared
round primitives of :mod:`repro.sim.round_ops`; a refactor that changes a
single bit of any trajectory, any comm charge, any simulated duration or any
fault/defense/membership decision fails here.  Backends other than serial
must reproduce the serial digest exactly (the execution layer's contract).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.registry import make_algorithm
from repro.compression import QSGDQuantizer, TopKSparsifier
from repro.core.hierminimax import HierMinimax
from repro.faults import FaultPlan
from repro.multilayer import HierarchyTree, MultiLevelHierMinimax
from repro.nn.models import make_model_factory
from repro.obs import Tracer
from repro.population import PopulationSpec

from tests.conftest import make_blob_fed

ROUNDS = 6
_TRACED = ("fault", "defense", "membership")

PRESETS = {
    "null": {},
    "faults": {"faults": "client_dropout=0.15,client_straggle=0.2,"
                         "edge_outage=0.1,msg_loss=0.15,msg_corrupt=0.05,"
                         "seed=3"},
    "defense": {"faults": "attack=sign_flip,attack_fraction=0.25,"
                          "attack_seed=1",
                "defense": "edge=trimmed_mean,cloud=median,loss_clip=2.0"},
    "hetero": {"timing": "hetero,seed=1,slow_clients=0|4"},
    "churn": {"churn": "arrive=0.2,depart=0.15,edge_mttf=3,edge_mttr=2,"
                       "link_mttf=5,seed=2"},
    # Virtual clients derived on demand, with churn re-homing between edges.
    "population": {"population": "edges=4,clients_per_edge=3,samples=6,"
                                 "test=8,classes=4,dim=5,seed=4",
                   "churn": "arrive=0.2,depart=0.15,edge_mttf=3,edge_mttr=2,"
                            "seed=2"},
}

REGISTRY = ("fedavg", "stochastic_afl", "drfa", "hierfavg", "hierminimax",
            "semiasync_hierminimax")
VARIANTS = ("hierminimax_qsgd", "hierminimax_topk", "multilevel_depth2",
            "multilevel_depth3")
HIERARCHICAL = ("hierfavg", "hierminimax", "semiasync_hierminimax",
                "hierminimax_qsgd", "hierminimax_topk", "multilevel_depth2")


class _Recorder(Tracer):
    """Live tracer that folds each finished round into one SHA-256 digest.

    The run loop calls ``obs.invariants.check_round`` after every round; the
    recorder answers that hook itself, so the digest sees exactly the state
    the loop leaves behind.
    """

    def __init__(self) -> None:
        super().__init__()
        self.invariants = self
        self.rounds = 0
        self._hash = hashlib.sha256()
        self._events: list[tuple[str, str]] = []

    def event(self, kind: str, **fields) -> None:
        if kind in _TRACED:
            self._events.append((kind, repr(sorted(fields.items()))))

    def check_round(self, algo, round_index: int, *, obs=None) -> list:
        h = self._hash
        h.update(algo.w.tobytes())
        weights = algo.current_weights()
        h.update(b"none" if weights is None else weights.tobytes())
        snap = algo.tracker.snapshot()
        for table in (snap.cycles, snap.messages, snap.floats):
            h.update(repr(sorted(table.items())).encode())
        h.update(repr(algo.timing.elapsed_s).encode())
        h.update(repr(sorted(self._events)).encode())
        self._events.clear()
        self.rounds += 1
        return []

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _build(algorithm: str, preset: str, backend: str, obs):
    layers = dict(PRESETS[preset])
    if "faults" in layers:
        layers["faults"] = FaultPlan.parse(layers["faults"])
    if "population" in layers:
        spec = PopulationSpec.parse(layers.pop("population"))
        data, layers["population"] = None, spec
        shape = spec
        input_dim, num_classes = spec.dim, spec.num_classes
    else:
        data = shape = make_blob_fed(num_edges=4, clients_per_edge=3,
                                     n_per_client=10, dim=5, seed=1)
        input_dim, num_classes = shape.input_dim, shape.num_classes
    factory = make_model_factory("mlp", input_dim, num_classes, hidden=(6,))
    common = dict(batch_size=4, eta_w=0.1, seed=5, backend=backend, obs=obs,
                  **layers)
    hier = dict(eta_p=0.05, tau1=2, tau2=2, m_edges=3)
    if algorithm in REGISTRY:
        return make_algorithm(algorithm, data, factory, **hier, **common)
    if algorithm == "hierminimax_qsgd":
        return HierMinimax(data, factory, compressor=QSGDQuantizer(8),
                           **hier, **common)
    if algorithm == "hierminimax_topk":
        return HierMinimax(data, factory, compressor=TopKSparsifier(0.3),
                           **hier, **common)
    if algorithm == "multilevel_depth2":
        return MultiLevelHierMinimax(data, factory, taus=(2, 2), m_top=3,
                                     eta_p=0.05, **common)
    assert algorithm == "multilevel_depth3"
    return MultiLevelHierMinimax(data, factory,
                                 tree=HierarchyTree.regular([2, 2, 3]),
                                 taus=(1, 2, 2), m_top=2, eta_p=0.05,
                                 **common)


def trajectory_digest(algorithm: str, preset: str, backend=None) -> str:
    """SHA-256 over the per-round state of one seeded run.

    ``backend=None`` takes the ``REPRO_BACKEND`` default (serial), so the
    whole table is also checked under whichever backend the suite runs on.
    """
    obs = _Recorder()
    with _build(algorithm, preset, backend, obs) as algo:
        algo.run(rounds=ROUNDS, eval_every=ROUNDS)
    assert obs.rounds == ROUNDS
    return obs.hexdigest()


GOLDEN: dict[tuple[str, str], str] = {
    ('fedavg', 'null'):
        "a6917b8603e812e88cece5a6e7970731b272d2e419826f56e658bc27d180d8b4",
    ('fedavg', 'faults'):
        "07a9c34cfb67e8527baa83c1565f95596a60000210ac6079f5d89d50e06399a6",
    ('fedavg', 'defense'):
        "75bc4f728b652f1c3c446d1d7e6d52ea752b100f00ddbb21c4e536a56c76cc30",
    ('fedavg', 'hetero'):
        "be3d0ad6062dfd1ac2bd51a69d694cd64bef8c1c84b2917886c3f3ff6f24f7b6",
    ('fedavg', 'churn'):
        "00b10738aea0c0e135d0cf2324088bf1b1e2c20bd76885e4ebc028fc464c1390",
    ('stochastic_afl', 'null'):
        "0ee105a37548b3f06d5211a5f977f602ca87e006c8560df9ca6257d5359ebea2",
    ('stochastic_afl', 'faults'):
        "85ac89b81bdf81d3c295ced87b05377a0cce779cc315e8999b096bda56e832dd",
    ('stochastic_afl', 'defense'):
        "9e891610fd787081c31b80dce1b42ef480cbf21a835e6b113ffdb9ec2fce633d",
    ('stochastic_afl', 'hetero'):
        "0dca186cb1d78c602aea5015b6e1b459525ae1ac57aa179c86debb11b9842f51",
    ('stochastic_afl', 'churn'):
        "239014df44b631a1280e62f48d81e13187f2935a3a9860e01f265764aea1d054",
    ('drfa', 'null'):
        "d1c6d8c7952e8c20296b8b7cb2dca426eeb353e8ee8737aeceaa9f0a95f0cced",
    ('drfa', 'faults'):
        "3727d5ea69ef3b380246204a515a36d759ad28f96b453bb35384fd68de0e5ddd",
    ('drfa', 'defense'):
        "a8b34fc3edd7718a048b84f3d0bdbb213842ef835a44e053d9d757f98677a725",
    ('drfa', 'hetero'):
        "cb21422dd82c0fbcb89f856b60a6be5241417aeb3c9d5d1a58a6d7166001c589",
    ('drfa', 'churn'):
        "ad5da9f463f9628ea014381500ef336cf51878d2b07f25e3603a608d4588bc40",
    ('hierfavg', 'null'):
        "223eeeb3075c8a1766d44150d091445b8289165c4bb0ed008e2fc008cf0bcc60",
    ('hierfavg', 'faults'):
        "92c3a44a75eac982248a08bf12f929d9edbd13607ef4da200c53b06022a8ef79",
    ('hierfavg', 'defense'):
        "5492fa4841bf8cf917fb3238b22be27091f06907b81aaef84481dde737cde089",
    ('hierfavg', 'hetero'):
        "9b2ea104446706c35baadd129084510a9454d07b4c83290e3f038d8780cda102",
    ('hierfavg', 'churn'):
        "1a636bf3ac83d35046311728e5fe98f7fa045ba5a55375d0e4757603ccce863f",
    ('hierminimax', 'null'):
        "7d696825532cf3f00d9b83791a077c2879506e91266209435c5e37097d4eaa74",
    ('hierminimax', 'faults'):
        "d6e446fe2f4c88ebe374ec3dd800e0fa7e2b6406e7286aaa436b2c02040af948",
    ('hierminimax', 'defense'):
        "5b9109d15add49be725642501cf962619c3228569a9e90557025e4e3fa7ec262",
    ('hierminimax', 'hetero'):
        "0f708d1d6ea876bb478033f954b1b4bb429b9d55049b665ec5054620f595fa1c",
    ('hierminimax', 'churn'):
        "bf5f3783909021d24be75284c78ae8975446a7bfd4f76c1098009505c3d4daec",
    ('semiasync_hierminimax', 'null'):
        "7d696825532cf3f00d9b83791a077c2879506e91266209435c5e37097d4eaa74",
    ('semiasync_hierminimax', 'faults'):
        "d6e446fe2f4c88ebe374ec3dd800e0fa7e2b6406e7286aaa436b2c02040af948",
    ('semiasync_hierminimax', 'defense'):
        "5b9109d15add49be725642501cf962619c3228569a9e90557025e4e3fa7ec262",
    ('semiasync_hierminimax', 'hetero'):
        "6b1488c6be7016722b1b99097ab800a4755260e08e744a7cde29a739fa2f35ae",
    ('semiasync_hierminimax', 'churn'):
        "bf5f3783909021d24be75284c78ae8975446a7bfd4f76c1098009505c3d4daec",
    ('hierminimax_qsgd', 'null'):
        "e54205f09c36f400386be4b80d3835540066eed0a107e2a9194ce94b97b44fce",
    ('hierminimax_qsgd', 'faults'):
        "b10a00a3c92c06241859224fe445fa5d05e8c40a44fdf62e3563311488919812",
    ('hierminimax_qsgd', 'defense'):
        "d192cca9c0bfeda00fe1914dd44ac6defb25e2962e547c4b3a92460243cefa4a",
    ('hierminimax_qsgd', 'hetero'):
        "06b97239041fa9a45adf0430bd1fbba418bd2c191cd32224c1661c8b06b8e9cf",
    ('hierminimax_qsgd', 'churn'):
        "dc82b115ee7a0b1e46c223f18550d0304a4d70233939af1e64df29d8c624425e",
    ('hierminimax_topk', 'null'):
        "799013c6fef8c84e53bfb0499e8daa25b521d07e4975ad8b323c23243b804912",
    ('hierminimax_topk', 'faults'):
        "e3f0b72a3ef142c6377acae97706a403289f1d446c93f23f4eb798b8324020b3",
    ('hierminimax_topk', 'defense'):
        "f53e9b87a1848334549bea57d0b7e43b82297a61ddece329afe9967ed7a9aa51",
    ('hierminimax_topk', 'hetero'):
        "9507d55e1542ac45d58d94cfcf0ba5bd9f20876d74bd5ee45d8923de15dfed01",
    ('hierminimax_topk', 'churn'):
        "7c2fa6507b71105d2d4af59be29d14fd145af2f0ffc466bfb7f9a63031f7bb71",
    ('multilevel_depth2', 'null'):
        "91ffeb7e71b48fab5fadcf60972afb6d0c6e2bacb927a89925f8c625d9a5d000",
    ('multilevel_depth2', 'faults'):
        "2c72a2abc356477aeb8db5a72aa3e2a1b63fd1281e7d18b84992ad0b60b3e3af",
    ('multilevel_depth2', 'defense'):
        "e5aa92f693cec45b54cd1188bb07d9f0dfd80dfa71b2a440f8d06511a2d08dd0",
    ('multilevel_depth2', 'hetero'):
        "4da91a1e0b7644dc299b1fc45487534a6dac02eb746c940aaf76164a55a191f1",
    ('multilevel_depth2', 'churn'):
        "5c5a854060846aa76989188982e942bb3def92ada9b37ddb3512f3cdd4d35c2f",
    ('multilevel_depth3', 'null'):
        "da4d9a231b5c87937e4acf0acba560bb6b2c80f43ca10aeaabd3ef651f1656b3",
    ('multilevel_depth3', 'faults'):
        "1b2fe8e75dabcc1800a79029254115166696db849136fabdc293000389d83ab8",
    ('multilevel_depth3', 'defense'):
        "d6328b8ed4a424a906c9a364dfc9c9fe99a8ee95684fe86f2865e653cf93fcc4",
    ('multilevel_depth3', 'hetero'):
        "fb77f4a463cac5e912bfdd989ddb075ac4194fe07cc13b6142d9c15dbd54c745",
    ('multilevel_depth3', 'churn'):
        "0c73a593413d5a2da6669c889b21ddb4be2deaff9b0a3b474a5e61ab67b93fa8",
    ('hierfavg', 'population'):
        "e4623e683069118259ba4ae7d1235545f7976ff84c42b3c0187f907c0504a649",
    ('hierminimax', 'population'):
        "f83925a9c583e9562752a06e11ea61b8e55fe09df93002a1e297006ece621301",
    ('semiasync_hierminimax', 'population'):
        "f83925a9c583e9562752a06e11ea61b8e55fe09df93002a1e297006ece621301",
    ('hierminimax_qsgd', 'population'):
        "1da635c24708a755339799520f2eeab219d367efb98fa29d5941d5e174194ab2",
    ('hierminimax_topk', 'population'):
        "1a174012c54d111941c7f85980e2e5f017026ff3849eb4c3f75826cd70607bd4",
    ('multilevel_depth2', 'population'):
        "c8bf9bb383228454330fae5c3542090b9cb6478fd1e2674cc978cd5cb81ca182",
}

_SERIAL = [(alg, preset) for alg in REGISTRY + VARIANTS
           for preset in ("null", "faults", "defense", "hetero", "churn")]
_SERIAL += [(alg, "population") for alg in HIERARCHICAL]


@pytest.mark.parametrize(("algorithm", "preset"), _SERIAL)
def test_default_backend_digest(algorithm, preset):
    assert trajectory_digest(algorithm, preset) == GOLDEN[algorithm, preset]


@pytest.mark.parametrize("backend", ["thread", "vectorized"])
@pytest.mark.parametrize("preset", ["null", "faults"])
@pytest.mark.parametrize("algorithm", REGISTRY + VARIANTS)
def test_pooled_backend_digest(algorithm, preset, backend):
    assert (trajectory_digest(algorithm, preset, backend)
            == GOLDEN[algorithm, preset])


def test_process_backend_digest():
    assert (trajectory_digest("hierminimax", "faults", "process")
            == GOLDEN["hierminimax", "faults"])
