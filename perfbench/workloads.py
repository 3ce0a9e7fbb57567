"""The four benchmark workloads: seeded corpora, tasks and output checks.

Every workload repeats tasks of one cost class.  ``build()`` makes
the corpus (the set-up), ``round(corpus, r)`` lists the tasks of round
``r`` (rounds cycle over the corpus), ``check`` judges one task's output
against an independent computation or a property of the method, and
``sampled_checks`` recomputes some of round 0's outputs by separate
routes.  ``check`` runs right after each task, outside its timer; the
sampled checks run after the timed loop.

Tasks reach the package through module attributes (``witness.polar``,
``simulate.error_profile``, ...) at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cbforms import forms, freecomb, matnum, ncpoly, quantum, simulate, witness

Seed = matnum.Seed


class Workload:
    """Base: subclasses define ``name``, ``build`` (the seeded corpus),
    ``round`` and ``check``."""

    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def sampled_checks(self, first_round) -> dict[int, str]:
        """Replays of round 0's (task, output) records: {index: problem}."""
        return {}


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    inputs: dict


def l1_norm(f) -> float:
    """|constant| + sum |coefficients|: an upper bound on the cb-norm."""
    return abs(f.constant) + sum(abs(c) for c in f.terms.values())


def eval_terms(constant, terms, x) -> float:
    """Direct monomial sum at a sign array x, independent of the package."""
    total = constant
    for (blocks, indices), coeff in terms.items():
        prod = coeff
        for b, i in zip(blocks, indices):
            prod *= x[b][i]
        total += prod
    return total


def random_signs(rng, shape) -> np.ndarray:
    return 1.0 - 2.0 * rng.integers(0, 2, size=shape).astype(float)


# -- witness ---------------------------------------------------------------

WITNESS_D, WITNESS_N, WITNESS_TERMS = 3, 4, 8
WITNESS_PAIRS = 16
RESIDUAL_LIMIT = 1e-10
# unitary substitutions can exceed the l1 bound only by their rounding
L1_ROUNDING = 1e-12
REPLAY_RTOL = 1e-9


def _leading_block(f) -> int:
    shares = [0.0] * f.d
    for (blocks, _), c in f.terms.items():
        shares[blocks[0]] += c * c
    return max(range(f.d), key=lambda b: (shares[b], -b))


def witness_form(seed: int, kind: int, k: int, homogeneous: bool):
    """First seeded random form that uses all d*n variables and, when
    general, leads with block 0: one cost class for the polar pipeline."""
    for attempt in range(10_000):
        f = forms.random_form(WITNESS_D, WITNESS_N, WITNESS_TERMS,
                              Seed(seed, (kind, k, attempt)), homogeneous=homogeneous)
        if len(f.support()) == WITNESS_D * WITNESS_N and (homogeneous or _leading_block(f) == 0):
            return f
    raise RuntimeError("no witness form of the required shape")


def _polar_inputs(f, report):
    """The polynomial, outer variables and side that produced ``report``."""
    if report.method == "polar-homogeneous":
        inf = np.zeros(f.n)
        for (_, indices), c in f.terms.items():
            inf[indices[0]] += c * c
        terms = f.terms
        outer = [(0, i) for i in range(f.n) if inf[i] > 0.0]
    else:
        beta = report.selected_block
        terms = {key: c for key, c in f.terms.items() if key[0][0] >= beta}
        outer = sorted({(beta, ix[0]) for (bl, ix) in terms if bl[0] == beta})
    p = ncpoly.NCPolynomial({tuple(zip(bl, ix)): c for (bl, ix), c in terms.items()},
                            constant=f.constant)
    return p, outer, terms


def replay_witness(f, report) -> str | None:
    """Rebuild the kept certificate with polar_witness and evaluate the form
    at its assignment with a plain product loop."""
    p, outer, terms = _polar_inputs(f, report)
    _, assignment = witness.polar_witness(p, outer, report.N, report.seed, side="left")
    eye = np.eye(report.N, dtype=complex)
    value = f.constant * eye
    for (blocks, indices), c in terms.items():
        prod = c * eye
        for var in zip(blocks, indices):
            prod = prod @ assignment[var]
        value = value + prod
    norm = float(np.linalg.norm(value, 2))
    if not abs(norm - report.achieved) <= REPLAY_RTOL * norm:
        return f"replayed norm {norm!r} != achieved {report.achieved!r}"
    return None


class WitnessWorkload(Workload):
    name = "witness"

    def build(self):
        seed = self.seed
        return [(witness_form(seed, 0, k, True), witness_form(seed, 1, k, False))
                for k in range(WITNESS_PAIRS)]

    def round(self, corpus, r: int) -> list[Task]:
        k = r % len(corpus)
        hom, gen = corpus[k]
        s_hom, s_gen = Seed(self.seed, (2, k)), Seed(self.seed, (3, k))
        return [
            Task("root-influence", lambda: witness.root_influence_witness(hom, seed=s_hom),
                 {"form": hom}),
            Task("general-form", lambda: witness.general_form_witness(gen, seed=s_gen),
                 {"form": gen}),
        ]

    def check(self, task: Task, rep) -> str | None:
        f = task.inputs["form"]
        l1 = l1_norm(f)
        if not (math.isfinite(rep.achieved) and rep.target <= rep.achieved
                <= l1 * (1.0 + L1_ROUNDING)):
            return f"not target {rep.target!r} <= achieved {rep.achieved!r} <= l1 {l1!r}"
        if not rep.unitarity_residual <= RESIDUAL_LIMIT:
            return f"unitarity residual {rep.unitarity_residual!r} > {RESIDUAL_LIMIT}"
        return None

    def sampled_checks(self, first_round) -> dict[int, str]:
        # one report of each kind
        out = {}
        for j, (task, rep) in enumerate(first_round):
            problem = replay_witness(task.inputs["form"], rep)
            if problem:
                out[j] = problem
        return out


# -- profile ---------------------------------------------------------------

PROFILE_N, PROFILE_QUERIES = 4, 2
PROFILE_CIRCUITS = 96
PROFILE_RANDOM_PER_ROUND = 3
PROFILE_POLICY = dict(epsilon=0.25, delta=0.25, query_budget=16)
AMPLITUDE_POINTS = 4
AMPLITUDE_TOL = 1e-12
AMPLITUDE_SEED_KEY = 99
# the Chebyshev premise holds exactly; allow for summation rounding only
CHEBYSHEV_ROUNDING = 1e-9


class ProfileWorkload(Workload):
    name = "profile"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self._amplitude_problem: dict[int, str | None] = {}

    def build(self):
        seed = self.seed
        circuits = [quantum.random_circuit(PROFILE_N, 1, PROFILE_QUERIES, Seed(seed, (0, k)))
                    for k in range(PROFILE_CIRCUITS)]
        circuits.append(quantum.forrelation_circuit(PROFILE_N))
        return [(c, quantum.extract_form(c)) for c in circuits]

    def round(self, corpus, r: int) -> list[Task]:
        policy = simulate.SimulationPolicy(**PROFILE_POLICY)
        picks = [(PROFILE_RANDOM_PER_ROUND * r + j) % (len(corpus) - 1)
                 for j in range(PROFILE_RANDOM_PER_ROUND)]
        picks.append(len(corpus) - 1)  # Forrelation closes every round
        tasks = []
        for k in picks:
            circuit, f = corpus[k]
            tasks.append(Task("forrelation" if k == len(corpus) - 1 else "random-circuit",
                              lambda f=f: simulate.error_profile(f, policy),
                              {"circuit": circuit, "form": f, "index": k}))
        return tasks

    def _amplitudes(self, task) -> str | None:
        """Whether the form matches its circuit's amplitudes at seeded
        inputs; judged once per form."""
        k = task.inputs["index"]
        if k not in self._amplitude_problem:
            circuit, f = task.inputs["circuit"], task.inputs["form"]
            rng = Seed(self.seed, (AMPLITUDE_SEED_KEY, k)).rng()
            self._amplitude_problem[k] = None
            for _ in range(AMPLITUDE_POINTS):
                x = random_signs(rng, (circuit.d, circuit.n))
                got, want = eval_terms(f.constant, f.terms, x), circuit.amplitude(x)
                if not abs(got - want) <= AMPLITUDE_TOL:
                    self._amplitude_problem[k] = (f"form {k}: extracted value {got!r} "
                                                  f"!= amplitude {want!r}")
                    break
        return self._amplitude_problem[k]

    def check(self, task: Task, prof) -> str | None:
        problem = self._amplitudes(task)
        if problem:
            return problem
        f = task.inputs["form"]
        budget = PROFILE_POLICY["query_budget"]
        support = len(f.support())
        if len(prof.errors) != 1 << support or len(prof.queries) != 1 << support:
            return f"profile covers {len(prof.errors)} points, cube has {1 << support}"
        if not np.all(np.isfinite(prof.errors)) or prof.errors.min() < 0.0:
            return "errors are not finite and nonnegative"
        if prof.queries.max() > min(budget, support) or prof.queries.min() < 0:
            return f"queries up to {prof.queries.max()} exceed min(budget, support)"
        # a budget stop needs queries == budget, so fewer everywhere means
        # every input stopped on variance
        if prof.queries.max() < budget:
            threshold = PROFILE_POLICY["epsilon"] ** 2 * PROFILE_POLICY["delta"]
            mse = float(np.mean(prof.errors ** 2))
            if mse > threshold * (1.0 + CHEBYSHEV_ROUNDING):
                return f"mean squared error {mse!r} > eps^2 delta {threshold!r}"
        return None


# -- online ----------------------------------------------------------------

ONLINE_N, ONLINE_QUERIES = 8, 3
ONLINE_FORMS = 64
ONLINE_INPUTS = 16
ONLINE_POLICY = dict(epsilon=0.25, delta=0.25, query_budget=32)
ONLINE_TOL = 1e-12


def dense_coefficients(c) -> np.ndarray:
    """Coefficient tensor of a workspace-1 circuit.  Expanding each
    D(x_b) = sum_i x_b(i) e_i e_i^T in u^T U_1 D(x_1) ... U_d D(x_d) v gives
    fhat[i_1..i_d] = (u^T U_1)[i_1] U_2[i_1, i_2] ... U_d[i_{d-1}, i_d] v[i_d]."""
    if c.s != 1:
        raise ValueError("dense_coefficients expects a workspace of size 1")
    letters = "abcdefghij"[: c.d]
    factors = [c.u @ c.unitaries[0]]
    spec = [letters[0]]
    for b in range(1, c.d):
        factors.append(c.unitaries[b])
        spec.append(letters[b - 1] + letters[b])
    factors.append(c.v)
    spec.append(letters[-1])
    return np.einsum(",".join(spec) + "->" + letters, *factors)


class OnlineWorkload(Workload):
    name = "online"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self._dense: dict[int, tuple[np.ndarray, tuple[int, int]]] = {}

    def build(self):
        seed = self.seed
        corpus = []
        for j in range(ONLINE_FORMS):
            circuit = quantum.random_circuit(ONLINE_N, 1, ONLINE_QUERIES, Seed(seed, (0, j)))
            rng = Seed(seed, (1, j)).rng()
            inputs = [random_signs(rng, (ONLINE_QUERIES, ONLINE_N)) for _ in range(ONLINE_INPUTS)]
            corpus.append((circuit, quantum.extract_form(circuit), inputs))
        return corpus

    def round(self, corpus, r: int) -> list[Task]:
        policy = simulate.SimulationPolicy(**ONLINE_POLICY)
        tasks = []
        for j, (circuit, f, inputs) in enumerate(corpus):
            x = inputs[r % len(inputs)]
            tasks.append(Task("input", lambda f=f, x=x: simulate.simulate_on_input(f, policy, x),
                              {"circuit": circuit, "x": x, "form_index": j}))
        return tasks

    def _reference(self, task):
        j = task.inputs["form_index"]
        if j not in self._dense:
            tensor = dense_coefficients(task.inputs["circuit"])
            d = tensor.ndim
            inf = np.stack([np.sum(tensor ** 2, axis=tuple(a for a in range(d) if a != b))
                            for b in range(d)])
            first = np.unravel_index(int(np.argmax(inf)), inf.shape)
            self._dense[j] = tensor, (int(first[0]), int(first[1]))
        return self._dense[j]

    def check(self, task: Task, tr) -> str | None:
        x = task.inputs["x"]
        tensor, first = self._reference(task)
        queried = [(b, i) for b, i, _ in tr.queries]
        if len(set(queried)) != len(queried):
            return f"repeated query in {queried}"
        if len(queried) > ONLINE_POLICY["query_budget"]:
            return f"{len(queried)} queries exceed the budget"
        if any(obs != x[b, i] for b, i, obs in tr.queries):
            return "an observed sign differs from the input"
        if not queried or queried[0] != first:
            return f"first query {queried[:1]} is not the top influence {first}"
        # unqueried variables average to 0, queried ones take their signs
        masks = np.zeros_like(x)
        for b, i in queried:
            masks[b, i] = x[b, i]
        want = tensor
        for b in range(tensor.ndim):
            want = np.tensordot(masks[b], want, axes=(0, 0))
        want = float(want)
        if not abs(tr.output - want) <= ONLINE_TOL:
            return f"output {tr.output!r} != conditional expectation {want!r}"
        return None


# -- moments ---------------------------------------------------------------

MOMENT_GENERATORS, MOMENT_DEGREE, MOMENT_TERMS = 3, 2, 4
MOMENT_ORDERS = (1, 2, 3, 4)
MOMENT_POLYS = 32
PAIRING_D, PAIRING_M = 2, 4
ORACLE_MAX_ORDER = 3


def fuss_catalan_times_m(d: int, m: int) -> int:
    """m * C_{d,m} = binom(m(d+1), m-1), kept as an integer product."""
    return math.comb(m * (d + 1), m - 1)


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("cbforms_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def moment_poly(rng):
    """Four distinct degree-2 words over three generators, nonzero integer
    coefficients in [-3, 3]."""
    words = set()
    while len(words) < MOMENT_TERMS:
        words.add(tuple(int(g) for g in rng.integers(1, MOMENT_GENERATORS + 1, size=MOMENT_DEGREE)))
    coeffs = [-3, -2, -1, 1, 2, 3]
    return ncpoly.NCPolynomial({w: float(coeffs[int(rng.integers(0, len(coeffs)))])
                                for w in sorted(words)})


def moment_task(p):
    moments = [freecomb.trace_moment_exact(p, m) for m in MOMENT_ORDERS]
    bounds = [freecomb.moment_upper_bound(p, m) for m in MOMENT_ORDERS]
    pairings = freecomb.enumerate_star_pairings(PAIRING_D, PAIRING_M)
    return moments, bounds, len(pairings)


class MomentsWorkload(Workload):
    name = "moments"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.oracles = load_oracles(root)

    def build(self):
        seed = self.seed
        rng = Seed(seed).rng()
        return [moment_poly(rng) for _ in range(MOMENT_POLYS)]

    def round(self, corpus, r: int) -> list[Task]:
        p = corpus[r % len(corpus)]
        return [Task("moments", lambda: moment_task(p), {"poly": p})]

    def check(self, task: Task, out) -> str | None:
        moments, bounds, pairings = out
        coeffs = [int(c) for c in task.inputs["poly"].terms.values()]
        s = sum(c * c for c in coeffs)
        for m, moment, bound in zip(MOMENT_ORDERS, moments, bounds):
            if type(moment) is not int or type(bound) is not int:
                return f"m={m}: moment {moment!r} or bound {bound!r} is not an exact integer"
            scaled = fuss_catalan_times_m(MOMENT_DEGREE, m) * s ** m
            if not 0 <= m * moment <= scaled:
                return f"m={m}: moment {moment} outside [0, C_dm |p|^2m]"
            if m * bound != scaled:
                return f"m={m}: bound {bound} != C_dm |p|^2m"
        if moments[0] != s:
            return f"first moment {moments[0]} != sum of squares {s}"
        want = fuss_catalan_times_m(PAIRING_D, PAIRING_M) // PAIRING_M
        if pairings != want:
            return f"{pairings} pairings, Fuss-Catalan count is {want}"
        return None

    def sampled_checks(self, first_round) -> dict[int, str]:
        # round 0 holds one task, on the corpus's first (seeded) polynomial
        task, (moments, _, _) = first_round[0]
        for m, moment in zip(MOMENT_ORDERS, moments):
            if m <= ORACLE_MAX_ORDER:
                want = self.oracles.trace_moment_naive(task.inputs["poly"], m)
                if want != moment:
                    return {0: f"m={m}: moment {moment} != naive sum {want}"}
        return {}


WORKLOADS = {wl.name: wl for wl in (WitnessWorkload, ProfileWorkload, OnlineWorkload,
                                     MomentsWorkload)}
