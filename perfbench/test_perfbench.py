"""Tests of the benchmark itself: oracle, self time, request generator."""

import random

import oracle
import pytest
import tracing
import workloads
from run import CALIBRATION_REFERENCE_S, scaled, tail_rank

LNFS_3 = b"0  1\n1  q^2 + q^3 + q^4\n2  q^6\n"
LNFS_3_ARGV = ("dist", "--n", "3", "--stat", "lnfs", "--q", "--format", "text")


def test_oracle_independent_numbers():
    assert [oracle.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [oracle.narayana_number(4, k) for k in range(4)] == [1, 6, 6, 1]
    assert oracle.poly_at_one("2 + q - 3q^4 + q^7") == 1
    assert oracle.poly_at_one("-q^2") == -1


def test_oracle_accepts_correct_output():
    golden = {oracle.key(LNFS_3_ARGV): oracle.digest(LNFS_3)}
    assert oracle.check(LNFS_3_ARGV, 0, LNFS_3, golden) is None


@pytest.mark.parametrize(
    "stdout",
    [
        LNFS_3.replace(b"q^6", b"2q^6"),  # wrong total, caught without the digest
        LNFS_3.replace(b"q^6", b"q^5"),  # right totals, caught by the digest
        LNFS_3[:-1],
        b"",
    ],
)
def test_oracle_rejects_corrupted_stdout(stdout):
    golden = {oracle.key(LNFS_3_ARGV): oracle.digest(LNFS_3)}
    assert oracle.check(LNFS_3_ARGV, 0, stdout, golden) is not None


def test_oracle_rejects_unexpected_exit_code():
    golden = {oracle.key(LNFS_3_ARGV): oracle.digest(LNFS_3)}
    assert oracle.check(LNFS_3_ARGV, 1, LNFS_3, golden) == "exit code 1"


def test_oracle_rejects_failed_verdicts_and_wrong_counts():
    qn = ("qnarayana", "--n", "3", "--k", "1", "--route", "all", "--format", "text")
    good = b"closed: q^2 + q^3 + q^4\nenumerate: q^2 + q^3 + q^4\nverdict pass\n"
    golden = {oracle.key(qn): oracle.digest(good)}
    assert oracle.check(qn, 0, good, golden) is None
    assert oracle.check(qn, 0, good.replace(b"pass", b"fail"), golden) == "verdict fail"
    omega = ("omega", "--n", "2", "--format", "json")
    assert oracle.check(omega, 0, b'{"nodes": [1]}', {}) == "1 nodes, not Catalan(2)"


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 7],
        ["dyck.distribution", 1.0, 4.0, 0, 7],
        ["qpoly.mul", 2.0, 3.0, 1, 7],
        ["qpoly.q_binomial", 5.0, 6.0, 0, 7],
        ["dyck.des", 6.5, 7.0, 0, 7],
    ]
    assert tracing.self_times(spans) == pytest.approx({"cli": 5.5, "dyck": 2.5, "qpoly": 2.0})


def test_self_time_counts_overlapping_children_once():
    spans = [["cli.main", 0.0, 4.0, -1, 0], ["dyck.a", 1.0, 3.0, 0, 0], ["dyck.b", 2.0, 5.0, 0, 0]]
    assert tracing.self_times(spans)["cli"] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.deck(workload, random.Random(11))
    assert first == workloads.deck(workload, random.Random(11))
    assert first != workloads.deck(workload, random.Random(12))
    assert set(first) <= workloads.catalogue(workload)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_request_has_a_frozen_digest(workload):
    golden = oracle.load_golden()
    assert not {oracle.key(argv) for argv in workloads.catalogue(workload)} - golden.keys()


def test_tail_rank_keeps_its_percentile_across_deck_counts():
    assert tail_rank(31, 31) == 21
    assert tail_rank(62, 31) == 42
    assert tail_rank(5, 5) == 5


def test_scaled_cancels_a_slow_spell_of_the_host():
    ref = CALIBRATION_REFERENCE_S
    # the host runs at half speed for the last three spawns: calibration and
    # request both take twice as long, and the scaled times do not move
    samples = [(ref, 0.3)] * 3 + [(2 * ref, 0.6)] * 3
    assert scaled(samples[:3]) == pytest.approx([0.3] * 3)
    assert scaled(samples[3:]) == pytest.approx([0.3] * 3)
    # one disturbed calibration inside a steady spell is outvoted
    assert scaled([(ref, 0.3), (ref, 0.3), (9 * ref, 0.3), (ref, 0.3), (ref, 0.3)]) == pytest.approx([0.3] * 5)
