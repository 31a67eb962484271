"""Documented threading model: solves are deterministic and independent,
inputs are immutable, so concurrent solves must agree with serial ones."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import kantgap as kg
from kantgap import modes


def test_concurrent_solves_match_serial():
    instances = [kg.random_instance(5, 5, 0.3, "random", seed) for seed in range(24)]
    serial = [kg.solve_profile(c, mu, nu) for c, mu, nu in instances]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda t: kg.solve_profile(*t), instances))
    assert serial == parallel


def test_shared_instance_across_threads():
    c, mu, nu = kg.example_diagonal(6)
    masses = [F(k, 6) for k in range(7)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        plans = list(pool.map(lambda m: kg.optimal_coupling_at(c, mu, nu, m), masses))
    for m, pi in zip(masses, plans):
        assert pi.mass == m
        assert kg.is_partial_coupling(pi, mu, nu)


def test_concurrent_dual_reports_agree():
    instances = [kg.random_instance(4, 4, 0.2, "uniform", seed) for seed in range(16)]
    serial = [kg.dual_value(c, mu, nu).value for c, mu, nu in instances]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda t: kg.dual_value(*t).value, instances))
    assert serial == parallel


def test_float_mode_in_one_thread_leaves_others_exact():
    # the mode is scoped to a context: a thread looping inside
    # arithmetic(FLOAT) must not turn another thread's numbers into floats
    stop = threading.Event()

    def float_loop():
        while not stop.is_set():
            with modes.arithmetic(modes.FLOAT):
                kg.uniform_marginal(3)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    worker = threading.Thread(target=float_loop)
    worker.start()
    try:
        built = [kg.uniform_marginal(3) for _ in range(2000)]
    finally:
        stop.set()
        worker.join(timeout=30)
        sys.setswitchinterval(old)
    assert not worker.is_alive()
    assert sum(any(isinstance(w, float) for w in mu.weights) for mu in built) == 0


def test_pool_workers_start_in_exact_mode():
    with modes.arithmetic(modes.FLOAT), ThreadPoolExecutor(max_workers=2) as pool:
        assert pool.submit(modes.get_mode).result(timeout=30) == modes.EXACT
        assert modes.get_mode() == modes.FLOAT
