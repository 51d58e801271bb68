// Disk/CPU cost model with the paper's constants (Section 6):
// 4KB blocks, 6MB memory per operator (128MB variant available), 10 ms seek,
// 2 ms/block sequential read, 4 ms/block sequential write, and 0.2 ms/block
// of CPU per block of data processed. Costs are in milliseconds of estimated
// resource consumption. Intermediate results are pipelined; only
// materialization writes to disk. Like the paper's objective, the model has
// no memory-budget term: a segment store's byte budget
// (ExecOptions::mat_budget_bytes) governs eviction at run time and never
// changes a plan's cost.

#ifndef MQO_COST_COST_MODEL_H_
#define MQO_COST_COST_MODEL_H_

#include <algorithm>
#include <cmath>

namespace mqo {

/// Tunable constants of the cost model.
struct CostParams {
  double block_size_bytes = 4096.0;
  double memory_bytes = 6.0 * 1024 * 1024;
  double seek_ms = 10.0;
  double read_ms_per_block = 2.0;
  double write_ms_per_block = 4.0;
  double cpu_ms_per_block = 0.2;

  /// Operator memory in blocks.
  double MemoryBlocks() const { return memory_bytes / block_size_bytes; }
};

/// Returns CostParams with the 128MB-per-operator memory configuration the
/// paper also evaluates.
inline CostParams LargeMemoryParams() {
  CostParams p;
  p.memory_bytes = 128.0 * 1024 * 1024;
  return p;
}

/// Cost formulas over block counts. All methods are pure.
class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams()) : p_(params) {}

  const CostParams& params() const { return p_; }

  /// Converts a byte size into a (fractional, >= 1 block min) block count.
  double Blocks(double bytes) const {
    return std::max(1.0, bytes / p_.block_size_bytes);
  }

  /// Sequential scan: one seek, then transfer + CPU per block.
  double SeqReadCost(double blocks) const {
    blocks = std::max(blocks, 1.0);
    return p_.seek_ms + blocks * (p_.read_ms_per_block + p_.cpu_ms_per_block);
  }

  /// Sequential write (materialization): one seek, write + CPU per block.
  double SeqWriteCost(double blocks) const {
    blocks = std::max(blocks, 1.0);
    return p_.seek_ms + blocks * (p_.write_ms_per_block + p_.cpu_ms_per_block);
  }

  /// Pure CPU pass over `blocks` (pipelined filter / merge / aggregation).
  double CpuPassCost(double blocks) const {
    return std::max(blocks, 0.0) * p_.cpu_ms_per_block;
  }

  /// Clustered-index selection retrieving `matching_blocks` of data:
  /// two random index-node reads plus a sequential scan of the matching
  /// leaf range.
  double IndexedSelectionCost(double matching_blocks) const {
    const double traversal = 2.0 * (p_.seek_ms + p_.read_ms_per_block);
    return traversal + SeqReadCost(matching_blocks);
  }

  /// External merge sort of `blocks`, input pipelined in, output pipelined
  /// out. In-memory if it fits; otherwise run formation (write) plus merge
  /// passes (read+write), with the final merge pass pipelined (read only).
  double SortCost(double blocks) const {
    blocks = std::max(blocks, 1.0);
    const double mem = p_.MemoryBlocks();
    if (blocks <= mem) {
      return p_.cpu_ms_per_block * blocks;  // in-memory sort
    }
    const double runs = std::ceil(blocks / mem);
    const double fan_in = std::max(2.0, mem - 1.0);
    const double merge_passes =
        std::max(1.0, std::ceil(std::log(runs) / std::log(fan_in)));
    // Run formation: write all runs.
    double cost = p_.seek_ms + blocks * (p_.write_ms_per_block + p_.cpu_ms_per_block);
    // Intermediate merge passes: read + write.
    cost += (merge_passes - 1.0) *
            (2.0 * p_.seek_ms +
             blocks * (p_.read_ms_per_block + p_.write_ms_per_block +
                       p_.cpu_ms_per_block));
    // Final merge pass: read only, output pipelined.
    cost += p_.seek_ms + blocks * (p_.read_ms_per_block + p_.cpu_ms_per_block);
    return cost;
  }

  /// Number of outer-chunk passes a block nested-loops join makes over the
  /// inner, holding (memory - 2) blocks of the outer per pass.
  double BnlPasses(double outer_blocks) const {
    const double chunk = std::max(1.0, p_.MemoryBlocks() - 2.0);
    return std::max(1.0, std::ceil(std::max(outer_blocks, 1.0) / chunk));
  }

 private:
  CostParams p_;
};

}  // namespace mqo

#endif  // MQO_COST_COST_MODEL_H_
