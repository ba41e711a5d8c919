"""Inter-server routing policies for the rack load balancer.

The catalogue follows RackSched's design space (section 4): oblivious
policies (random, round-robin) and queue-aware policies (JSQ, power-of-d
choices).  RackSched's deployed shortest-expected-delay policy weights the
queue signal by server capacity; every rack here is built from one
machine, where that ranks servers exactly like JSQ, so the catalogue has
no separate SED policy.  Both queue-aware policies read the balancer's
:class:`~repro.cluster.network.TelemetryBoard`, so signal staleness affects
both through the same mechanism.
"""

__all__ = [
    "InterServerPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "JSQPolicy",
    "Po2Policy",
    "make_cluster_policy",
    "CLUSTER_POLICIES",
]


class InterServerPolicy:
    """Base class: picks the server index for each arriving request."""

    #: Short label used in tables and CLI flags.
    name = "?"

    def choose(self, board, num_servers, rng):
        """Return the target server index for the next request."""
        raise NotImplementedError

    def __repr__(self):
        return "{}()".format(type(self).__name__)


class RandomPolicy(InterServerPolicy):
    """Uniformly random spraying — the signal-free baseline."""

    name = "random"

    def choose(self, board, num_servers, rng):
        return rng.randrange(num_servers)


class RoundRobinPolicy(InterServerPolicy):
    """Cycle through servers in order (a NIC RSS indirection table)."""

    name = "rr"

    def __init__(self):
        self._cursor = 0

    def choose(self, board, num_servers, rng):
        index = self._cursor % num_servers
        self._cursor = index + 1
        return index


def _argmin(scores, rng):
    """Index of the minimum score, random tie-break (RackSched randomizes
    ties so equal queues do not herd onto the lowest index)."""
    best = []
    best_score = None
    for index, score in enumerate(scores):
        if best_score is None or score < best_score:
            best = [index]
            best_score = score
        elif score == best_score:
            best.append(index)
    if len(best) == 1:
        return best[0]
    return best[rng.randrange(len(best))]


class JSQPolicy(InterServerPolicy):
    """Join-the-shortest-queue over the balancer-visible queue lengths."""

    name = "jsq"

    def choose(self, board, num_servers, rng):
        return _argmin(
            [board.queue_len(i) for i in range(num_servers)], rng
        )


class Po2Policy(InterServerPolicy):
    """Power-of-d-choices: sample ``d`` servers, join the shorter queue.

    The classic cheap approximation to JSQ — with d=2 its tail is within a
    small constant factor of JSQ while touching only two counters.
    """

    name = "po2"

    def __init__(self, d=2):
        if d < 2:
            raise ValueError("power-of-d needs d >= 2, got {}".format(d))
        self.d = d
        if d != 2:
            self.name = "po{}".format(d)

    def choose(self, board, num_servers, rng):
        d = min(self.d, num_servers)
        candidates = rng.sample(range(num_servers), d)
        scores = [board.queue_len(i) for i in candidates]
        return candidates[_argmin(scores, rng)]


#: Factories for every named policy, keyed by CLI/experiment label.
CLUSTER_POLICIES = {
    "random": RandomPolicy,
    "rr": RoundRobinPolicy,
    "round-robin": RoundRobinPolicy,
    "jsq": JSQPolicy,
    "po2": Po2Policy,
}


def make_cluster_policy(spec):
    """Build a policy from a name ("random", "rr", "jsq", "po<d>")
    or pass an :class:`InterServerPolicy` through; ValueError otherwise."""
    if isinstance(spec, InterServerPolicy):
        return spec
    name = str(spec).lower()
    if name in CLUSTER_POLICIES:
        return CLUSTER_POLICIES[name]()
    if name.startswith("po"):
        try:
            return Po2Policy(d=int(name[2:]))
        except ValueError:
            pass
    raise ValueError(
        "unknown inter-server policy {!r}; known: {}, po<d> (d >= 2)".format(
            spec, ", ".join(sorted(CLUSTER_POLICIES))
        )
    )
