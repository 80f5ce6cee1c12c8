"""Federated k-Means (FkM) and Khatri-Rao-FkM (paper Section 9.4, Figure 10).

Protocol (one round):

1. the server broadcasts its current model — centroids for ``FkM``,
   protocentroid sets for ``KhatriRaoFkM`` — to every client
   (**the server→client communication the paper measures**);
2. ``FkM``: every client runs ``local_steps`` Lloyd steps on its shard and
   reports its one-set statistics of Proposition 6.1 (grouped sums and
   masses) through the same ``set_statistics`` call KR-FkM clients make;
   the server sums the reports, divides once (``store_quotient``) and
   reseeds clusters left without mass from a participating shard;
3. ``KhatriRaoFkM``: the round runs ``local_steps`` global sweeps over the
   sets.  For each set ``q`` in turn, every client re-assigns its shard
   against the sets updated so far and returns set ``q``'s sufficient
   statistics of Proposition 6.1; the server sums them and updates set
   ``q`` in closed form before the next set.  So a round assigns every
   shard ``local_steps · p`` times, against partly updated sets.

Communication cost is accounted in bytes of working-dtype payload per
round, matching the x-axis of Figure 10: one model broadcast per
participating client per round — for ``KhatriRaoFkM`` the within-round
set updates of step 3 are not charged.  The paper's float64 setting is
the default, and the ``dtype="float32"`` knob halves the broadcast (the
production-serving configuration).  Client-side statistics keep the
dtype policy of the central kernels — per-point arithmetic in the working
dtype, grouped accumulation and the server-side merge in float64
(``docs/numerics.md``).

Both estimators share one private base class
(``_FederatedRounds``): shard and row validation (typed
``ValidationError``), the initial model, participants and quorum, byte
accounting, history, client reports and ``predict``.  ``FkM`` is its
one-set sum model scored materialized, as :class:`repro.KMeans` is for
:class:`repro.KhatriRaoKMeans`; each estimator keeps only its round body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_array,
    check_cardinalities,
    check_dtype,
    check_n_features,
    check_positive_int,
    check_random_state,
    int_prod,
)
from ..core._distances import assign_to_nearest
from ..core._factored import assign_khatri_rao
from ..core._update import set_statistics, store_quotient
from ..core.kr_kmeans import _split_seeds
from ..exceptions import NotFittedError, QuorumError, ValidationError
from ..linalg import (
    flat_to_set_labels,
    get_aggregator,
    khatri_rao_combine,
    resolve_working_dtype,
)

__all__ = ["FederatedKMeans", "KhatriRaoFederatedKMeans", "communication_cost_bytes"]

_FLOAT_BYTES = 8


def communication_cost_bytes(
    n_vectors: int,
    n_features: int,
    n_clients: int,
    n_rounds: int,
    *,
    itemsize: int = _FLOAT_BYTES,
) -> int:
    """Bytes sent server→clients: one model broadcast per client per round.

    ``itemsize`` is the bytes-per-scalar of the broadcast payload — 8 for
    the paper's float64 accounting (default), 4 when the federation runs
    with ``dtype="float32"``.
    """
    return (
        int(n_vectors) * int(n_features) * int(itemsize)
        * int(n_clients) * int(n_rounds)
    )


@dataclass
class _History:
    inertia: List[float] = field(default_factory=list)
    communication_bytes: List[int] = field(default_factory=list)


class _FederatedRounds:
    """The federated Khatri-Rao model and its round loop, shared by FkM
    (the one-set sum model) and KR-FkM: constructor validation, shard
    validation, initial model, participants and quorum, byte accounting,
    history, client reports and ``predict``.  A subclass supplies its
    round body (``_round``, with its reseed rule)."""

    #: client and ``predict`` assignment (``assign_khatri_rao``); FkM
    #: scores its one set of centers materialized
    _assignment = "auto"

    def __init__(
        self, cardinalities, aggregator, *, n_rounds, local_steps, dtype,
        random_state, participation, min_clients,
    ) -> None:
        self.cardinalities = check_cardinalities(cardinalities)
        self.aggregator = get_aggregator(aggregator)
        self.n_rounds = check_positive_int(n_rounds, "n_rounds")
        self.local_steps = check_positive_int(local_steps, "local_steps")
        self.dtype = check_dtype(dtype)
        self.random_state = random_state
        if participation is not None and not callable(participation):
            raise ValidationError(
                "participation must be None or a callable "
                "policy(round_index, n_clients) -> client indices"
            )
        self.participation = participation
        self.min_clients = check_positive_int(min_clients, "min_clients")
        self.protocentroids_: Optional[List[np.ndarray]] = None
        self.dtype_: Optional[np.dtype] = None
        self.history_ = _History()
        #: global inertia of the initial (pre-aggregation) model — what
        #: clients hold at budgets below the first full round's cost.
        self.initial_inertia_: float = np.inf

    @property
    def n_clusters(self) -> int:
        return int_prod(self.cardinalities)

    def broadcast_vectors(self) -> int:
        """Vectors broadcast per round: ``∑ h_q`` (``k`` for FkM)."""
        return int(sum(self.cardinalities))

    def fit(self, shards: Sequence[Tuple[np.ndarray, np.ndarray]]):
        """Run federated training over client ``(X, y)`` shards."""
        self.dtype_ = resolve_working_dtype(self.dtype, self.aggregator)
        datas = _validate_shards(shards, self.dtype_)
        rng = check_random_state(self.random_state)
        m = datas[0].shape[1]
        seeds = _sample_initial_vectors(datas, self.broadcast_vectors(), rng)
        thetas = _split_seeds(seeds, self.cardinalities, self.aggregator)
        self.initial_inertia_ = _global_inertia(
            datas, khatri_rao_combine(thetas, self.aggregator)
        )
        self.history_ = _History()
        cumulative_bytes = 0
        for round_index in range(self.n_rounds):
            participants = _round_participants(
                self.participation, round_index, len(datas), self.min_clients
            )
            cumulative_bytes += communication_cost_bytes(
                self.broadcast_vectors(), m, participants.size, 1,
                itemsize=self.dtype_.itemsize,
            )
            self._round(thetas, [datas[int(ci)] for ci in participants], rng)
            self.history_.inertia.append(_global_inertia(
                datas, khatri_rao_combine(thetas, self.aggregator)
            ))
            self.history_.communication_bytes.append(cumulative_bytes)
        self.protocentroids_ = thetas
        return self

    def predict(self, X) -> np.ndarray:
        """Assign rows of ``X`` to the aggregated global centroids."""
        if self.protocentroids_ is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit first"
            )
        X = check_array(X, dtype=self.dtype_)
        check_n_features(X, self.protocentroids_[0].shape[1])
        return self._assign(X, self.protocentroids_)

    def _assign(self, X: np.ndarray, thetas: List[np.ndarray]) -> np.ndarray:
        return assign_khatri_rao(
            X, thetas, self.aggregator, assignment=self._assignment
        )[0]

    def _report(self, X: np.ndarray, thetas: List[np.ndarray], q: int):
        """A client's report for set ``q`` under its nearest centroids:
        the ``(numerator, denominator or None, mass)`` of Proposition 6.1
        (contingency-factored for the sum aggregator, gathered
        otherwise)."""
        set_labels = flat_to_set_labels(self._assign(X, thetas), self.cardinalities)
        return next(set_statistics(
            X, thetas, set_labels, self.aggregator,
            factored=self.aggregator.supports_factored_update, sets=(q,),
        ))[1:]


class FederatedKMeans(_FederatedRounds):
    """FkM: server/client federated Lloyd iterations.

    Parameters
    ----------
    n_clusters : int
        Number of global centroids ``k``.
    n_rounds : int
        Communication rounds (one broadcast + one aggregation each).
    local_steps : int
        Lloyd steps each client runs per round before reporting statistics.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of shards, centroids and the broadcast payload;
        ``history_.communication_bytes`` accounts the dtype's itemsize.
        Client statistics still merge in float64 on the server.  Default
        ``"float64"`` reproduces the paper's accounting bit for bit.
    random_state : None, int or Generator
        Source of randomness (initial centroid sampling, empty reseeds).
    participation : None or callable
        Per-round client participation policy
        ``policy(round_index, n_clients) -> indices`` (an index array or a
        boolean mask over clients).  Dropped clients are skipped for the
        round and the aggregation renormalizes over the survivors; the
        byte accounting only charges broadcasts actually sent.  ``None``
        (default) keeps every client in every round.
        :class:`repro.faults.DropoutSchedule` provides deterministic
        schedules with exactly this signature.
    min_clients : int
        Quorum: the minimum number of participating clients a round needs.
        A round below quorum raises :class:`repro.exceptions.QuorumError`.

    Attributes
    ----------
    cluster_centers_ : array (n_clusters, m)
        Aggregated global centroids, in the working dtype.
    history_ : _History
        Per-round global inertia and cumulative server→client bytes.
    initial_inertia_ : float
        Global inertia of the initial (pre-aggregation) model.
    """

    _assignment = "materialized"

    def __init__(
        self,
        n_clusters: int,
        *,
        n_rounds: int = 10,
        local_steps: int = 1,
        dtype="float64",
        random_state=None,
        participation=None,
        min_clients: int = 1,
    ) -> None:
        super().__init__(
            (check_positive_int(n_clusters, "n_clusters"),), "sum",
            n_rounds=n_rounds, local_steps=local_steps, dtype=dtype,
            random_state=random_state, participation=participation,
            min_clients=min_clients,
        )

    @property
    def cluster_centers_(self):
        """The aggregated ``(n_clusters, m)`` centroids (``None`` before
        fit)."""
        return None if self.protocentroids_ is None else self.protocentroids_[0]

    def _round(self, thetas, round_datas, rng) -> None:
        """Every participant runs ``local_steps`` Lloyd steps from the
        broadcast centers and reports under its final local assignment;
        the server divides the summed reports (renormalized over the
        survivors: a dropped client reports nothing) and reseeds each
        empty cluster from a participating shard."""
        reports = []
        for X in round_datas:
            local = [thetas[0].copy()]
            for _ in range(self.local_steps):
                store_quotient(local[0], *self._report(X, local, 0))
            reports.append(self._report(X, local, 0))
        merged = _merge_reports(reports)
        store_quotient(thetas[0], *merged)
        empty = np.flatnonzero(merged[2] == 0)
        if empty.size:
            # A dropped client's data is unreachable by the server.
            donor = round_datas[int(rng.integers(len(round_datas)))]
            thetas[0][empty] = donor[rng.choice(donor.shape[0], size=empty.size)]


class KhatriRaoFederatedKMeans(_FederatedRounds):
    """Khatri-Rao-FkM: federated clustering communicating protocentroids.

    The server broadcasts the ``∑ h_q`` protocentroid vectors; each round
    runs ``local_steps`` global sweeps over the sets (module docstring,
    step 3).  Clients assign through
    :func:`repro.core._factored.assign_khatri_rao` (factored for
    decomposable aggregators — never materializing the centroid grid) and
    report set ``q``'s statistics through
    :func:`repro.core._update.set_statistics` (contingency-factored for
    the sum aggregator, the gather form otherwise).

    Parameters mirror :class:`FederatedKMeans` (including the ``dtype``
    knob, resolved against the aggregator's ``working_dtypes`` capability
    with a loud float64 fallback, and the ``participation``/``min_clients``
    dropout controls), except that ``local_steps`` counts global sweeps;
    ``aggregator`` defaults to the product, as in the paper's case study.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="product",
        n_rounds: int = 10,
        local_steps: int = 1,
        dtype="float64",
        random_state=None,
        participation=None,
        min_clients: int = 1,
    ) -> None:
        super().__init__(
            cardinalities, aggregator, n_rounds=n_rounds,
            local_steps=local_steps, dtype=dtype, random_state=random_state,
            participation=participation, min_clients=min_clients,
        )

    def _round(self, thetas, round_datas, rng) -> None:
        """``local_steps`` global KR-Lloyd steps from merged client
        statistics: set by set, every client re-assigns its shard against
        the partly updated sets and reports set ``q``'s statistics.  An
        empty protocentroid keeps its value."""
        for _ in range(self.local_steps):
            for q in range(len(thetas)):
                reports = [self._report(X, thetas, q) for X in round_datas]
                store_quotient(thetas[q], *_merge_reports(reports))


def _merge_reports(reports) -> list:
    """Sum client reports ``(numerator, denominator or None, mass)`` in
    participant order.  The float64 reports sum at any working dtype; the
    quotient rounds once into the working-dtype model."""
    return [
        None if parts[0] is None else sum(parts) for parts in zip(*reports)
    ]


def _global_inertia(datas: Sequence[np.ndarray], centers: np.ndarray) -> float:
    """Total squared distance of every shard to its nearest of ``centers``."""
    total = 0.0
    for X in datas:
        _, distances = assign_to_nearest(X, centers)
        total += float(distances.sum(dtype=np.float64))
    return total


def _round_participants(
    participation, round_index: int, n_clients: int, min_clients: int
) -> np.ndarray:
    """Resolve one round's participating client indices, enforcing quorum.

    The policy may return an index array or a boolean mask over clients;
    the result is normalized to sorted unique int64 indices so aggregation
    order — and therefore the merged float64 sums — is deterministic for a
    given schedule.
    """
    if participation is None:
        participants = np.arange(n_clients, dtype=np.int64)
    else:
        raw = np.asarray(participation(round_index, n_clients))
        if raw.dtype == bool:
            if raw.shape != (n_clients,):
                raise ValidationError(
                    f"participation mask for round {round_index} must have "
                    f"shape ({n_clients},), got {raw.shape}"
                )
            participants = np.flatnonzero(raw).astype(np.int64)
        else:
            participants = np.unique(raw.astype(np.int64, casting="unsafe").ravel())
            if participants.size and (
                participants[0] < 0 or participants[-1] >= n_clients
            ):
                raise ValidationError(
                    f"participation indices for round {round_index} must lie "
                    f"in [0, {n_clients}), got {participants.tolist()}"
                )
    if participants.size < min_clients:
        raise QuorumError(
            f"round {round_index} has {participants.size} participating "
            f"client(s), below the min_clients={min_clients} quorum",
            round_index=round_index,
            participating=int(participants.size),
            required=int(min_clients),
        )
    return participants


def _validate_shards(shards, dtype) -> List[np.ndarray]:
    if not shards:
        raise ValidationError("at least one client shard is required")
    datas = [
        check_array(
            shard[0] if isinstance(shard, tuple) else shard,
            name=f"client shard {i}", dtype=dtype,
        )
        for i, shard in enumerate(shards)
    ]
    if any(X.shape[1] != datas[0].shape[1] for X in datas):
        raise ValidationError("all client shards must share the feature dimension")
    return datas


def _sample_initial_vectors(
    datas: Sequence[np.ndarray], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw initial vectors from clients proportionally to shard size."""
    sizes = np.array([X.shape[0] for X in datas], dtype=float)
    choices = rng.choice(len(datas), size=count, p=sizes / sizes.sum())
    # Seeds inherit the (already-cast) shard dtype.
    vectors = np.empty((count, datas[0].shape[1]), dtype=datas[0].dtype)
    for i, client in enumerate(choices):
        X = datas[int(client)]
        vectors[i] = X[int(rng.integers(X.shape[0]))]
    return vectors
