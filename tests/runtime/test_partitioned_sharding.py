"""Row sharding of partitioned (multi-task) kernels.

Graph partitioning (paper Section IV-A4) splits one kernel into several
``lo_spn.task`` ops that run in order and pass intermediates through
scratch buffers; row sharding (Section IV-B) then runs that whole task
sequence once per chunk of the batch. The shard-confinement rule of the
``concurrency`` analysis is what licenses it: every task reads and
writes only its own chunk's rows. These tests hold the runtime to that
proof on kernels with several tasks, in every CPU vectorization mode:
sharded outputs are bit-identical to the single-threaded run at every
tail shape, and the executed chunks cover the batch exactly once.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.ir.analysis import check_shard_plan
from repro.spn import Gaussian, JointProbability, Product, Sum, log_likelihood

BATCH = 64
MODES = ("off", "lanes", "batch")


def _wide_spn(width=4):
    """Independent 2-feature products under one Sum."""
    products = [
        Product([Gaussian(2 * i, 0.0, 1.0), Gaussian(2 * i + 1, 0.0, 1.0)])
        for i in range(width)
    ]
    return Sum(products, [1.0 / width] * width)


def _compile(mode, num_threads, **options):
    # Size 4: the 4-term sum layer fills the final partition, each
    # (gaussian, gaussian, product) subtree one of its own.
    return compile_spn(
        _wide_spn(),
        JointProbability(batch_size=BATCH),
        CompilerOptions(
            vectorize=mode,
            max_partition_size=4,
            num_threads=num_threads,
            **options,
        ),
    )


@pytest.fixture(scope="module", params=MODES)
def kernels(request):
    single = _compile(request.param, 1).executable
    sharded = _compile(request.param, 4).executable
    yield single, sharded
    single.close()
    sharded.close()


class TestMultiTaskKernel:
    def test_partitioning_yields_several_tasks(self):
        result = _compile("batch", 2)
        try:
            assert result.num_tasks == 5  # 4 subtrees + the sum
        finally:
            result.executable.close()

    def test_every_pass_reverification_is_clean(self):
        # The concurrency analysis re-proves shard confinement of every
        # task after each pass.
        result = _compile("batch", 4, verify_each="every-pass")
        try:
            assert result.analysis_findings == []
        finally:
            result.executable.close()


class TestShardedBitIdentity:
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 1000])
    def test_sharded_matches_single_bitwise(self, kernels, batch, rng):
        single, sharded = kernels
        inputs = rng.normal(size=(batch, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            sharded.execute(inputs), single.execute(inputs)
        )

    def test_sharded_matches_reference(self, kernels, rng):
        _, sharded = kernels
        inputs = rng.normal(size=(1000, 8)).astype(np.float32)
        np.testing.assert_allclose(
            sharded.execute(inputs),
            log_likelihood(_wide_spn(), inputs.astype(np.float64)),
            rtol=1e-5,
            atol=1e-5,
        )

    def test_executed_chunks_cover_the_batch_once(self, kernels, rng):
        _, sharded = kernels
        sharded.execute(rng.normal(size=(16 * BATCH, 8)).astype(np.float32))
        ran = sorted((r.start, r.end) for r in sharded.last_timeline.records)
        assert len(ran) >= 2
        assert check_shard_plan(ran, 16 * BATCH) == []
