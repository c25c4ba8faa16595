"""Table II: benchmark-suite statistics.

Regenerates the qubit counts, gate counts, 2Q-gates-per-qubit and
degree-per-qubit columns for every benchmark in both suites.
"""

from repro.experiments import benchmark_statistics


def test_table2_benchmark_statistics(record_rows):
    rows = benchmark_statistics()
    record_rows("table2_benchmarks", rows)
    # structural checks against the paper's Table II
    by_name = {r["name"]: r for r in rows}
    assert by_name["QV-32"]["2q_gates"] == 1536
    assert by_name["QAOA-regu5-40"]["2q_gates"] == 100
    assert by_name["QAOA-regu6-100"]["2q_gates"] == 300
    assert by_name["VQE-10"]["2q_gates"] == 9
    assert by_name["BV-50"]["qubits"] == 50
    assert by_name["Mermin-Bell-10"]["degree_per_q"] >= 7.0
