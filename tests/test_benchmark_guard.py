"""Guard: instrumentation must not move the virtual-time benchmarks.

The tracing/metrics layer reads the virtual clock but never charges it,
so the figure benchmarks must reproduce the committed seed results
bit-for-bit. This smoke test recomputes representative Fig 9 sweep
points and the 4-store column of Fig 13(c), and compares them —
formatted exactly as the results file is written (six decimal places)
— against ``benchmarks/results``.
"""

import re
from pathlib import Path

import pytest

from repro.core.augmentation import AugmentationConfig
from repro.workloads import PolystoreScale, QueryWorkload, build_polyphony

from benchmarks.conftest import QUERY_SIZES, get_bundle
from benchmarks.harness import run_cold_warm
from benchmarks.test_fig13_middleware import middleware_systems, quepa_time

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
RESULTS = RESULTS_DIR / "fig09_batch_size_sweep.txt"
FIG13_RESULTS = RESULTS_DIR / "fig13_store_count_scalability.txt"
FIG13_SYSTEMS = (
    "QUEPA", "META-NAT", "META-AUG", "TALEND", "ARANGO-NAT", "ARANGO-AUG"
)
# Two points per augmenter keep the guard under a few seconds while
# covering both the query-bound and the overhead-bound ends of Fig 9.
POINTS = (("batch", 16), ("batch", 256),
          ("outer_batch", 16), ("outer_batch", 256))

COLD_LINE = re.compile(
    r"augmenter=(\w+)\s+batch_size=(\d+)\s+cold_s=([\d.]+)\s+queries=(\d+)"
)
WARM_LINE = re.compile(
    r"augmenter=(\w+)\s+batch_size=(\d+)\s+warm_s=([\d.]+)"
)


def parse_seed_results():
    """The committed sweep, keyed ``(augmenter, batch_size)``."""
    cold: dict[tuple[str, int], tuple[str, int]] = {}
    warm: dict[tuple[str, int], str] = {}
    for line in RESULTS.read_text().splitlines():
        if match := COLD_LINE.search(line):
            augmenter, batch_size, cold_s, queries = match.groups()
            cold[(augmenter, int(batch_size))] = (cold_s, int(queries))
        elif match := WARM_LINE.search(line):
            augmenter, batch_size, warm_s = match.groups()
            warm[(augmenter, int(batch_size))] = warm_s
    return cold, warm


@pytest.fixture(scope="module")
def fig09_setup():
    """The exact bundle + query the Fig 9 sweep uses (small profile)."""
    bundle = build_polyphony(
        stores=10, scale=PolystoreScale(n_albums=1000), seed=42
    )
    query = QueryWorkload(bundle).query("transactions", 1000)
    return bundle, query


class TestFig09Unchanged:
    def test_seed_results_file_present(self):
        assert RESULTS.exists(), "seed benchmark results are committed"
        cold, warm = parse_seed_results()
        for point in POINTS:
            assert point in cold and point in warm

    @pytest.mark.parametrize("augmenter,batch_size", POINTS)
    def test_sweep_point_bit_identical(
        self, fig09_setup, augmenter, batch_size
    ):
        bundle, query = fig09_setup
        seed_cold, seed_warm = parse_seed_results()
        expected_cold, expected_queries = seed_cold[(augmenter, batch_size)]
        config = AugmentationConfig(
            augmenter=augmenter, batch_size=batch_size,
            threads_size=4, cache_size=200_000,
        )
        times = run_cold_warm(bundle, query, config, level=0)
        assert f"{times.cold:.6f}" == expected_cold
        assert f"{times.warm:.6f}" == seed_warm[(augmenter, batch_size)]
        assert times.queries_issued == expected_queries


FIG13_LINE = re.compile(r"stores=4\s+system=(\S+)\s+cold_s=([\d.]+)")


@pytest.fixture(scope="module")
def fig13_four_stores():
    """Every Fig 13(c) system's cold time at 4 stores, run exactly as the
    figure runs them (the figure's query size, systems and budget; the
    committed rows are the default scale, so ``REPRO_FULL`` is unset)."""
    bundle = get_bundle(4)
    query = QueryWorkload(bundle).query("catalogue", QUERY_SIZES[1])
    cold = {"QUEPA": quepa_time(bundle, query, 0)}
    for system in middleware_systems(bundle):
        cold[system.name] = system.run(query, level=0).elapsed
    return cold


class TestFig13Unchanged:
    @pytest.mark.parametrize("system", FIG13_SYSTEMS)
    def test_four_store_row_bit_identical(self, fig13_four_stores, system):
        committed = dict(FIG13_LINE.findall(FIG13_RESULTS.read_text()))
        assert f"{fig13_four_stores[system]:.6f}" == committed[system]
