"""Per-block fault seeds are a pure function of the run seed and the block."""

from __future__ import annotations

from repro.parallel.scheduler import _block_fault_seed


class TestBlockFaultSeed:
    def test_pure_function_of_seed_and_addr(self):
        assert _block_fault_seed(7, 0x1000) == _block_fault_seed(7, 0x1000)

    def test_spreads_across_blocks_and_seeds(self):
        seeds = {_block_fault_seed(7, a) for a in range(0x1000, 0x1040, 4)}
        assert len(seeds) == 16
        assert _block_fault_seed(8, 0x1000) != _block_fault_seed(7, 0x1000)
