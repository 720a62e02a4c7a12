#ifndef PORYGON_TX_TXPOOL_H_
#define PORYGON_TX_TXPOOL_H_

#include <vector>

#include "common/flat_map.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::tx {

/// Per-storage-node mempool. Transactions are bucketed by the shard of
/// their *initiating* account (cross-shard transactions execute first in the
/// sender's shard, §IV-D2), deduplicated by id, and drained FIFO into
/// transaction blocks. Each shard's queue is one contiguous vector read from
/// a head index, so admission appends in place and a block drains one
/// range.
class TxPool {
 public:
  explicit TxPool(int shard_bits);

  /// Adds a transaction; duplicates (same id) are ignored. Returns whether
  /// it was admitted.
  bool Add(const Transaction& transaction);
  /// Same, with the id the caller already computed (id == transaction.Id()).
  bool Add(const Transaction& transaction, const TxId& id);

  /// Drains up to `max_count` transactions of `shard` into a block. Returns
  /// a sealed block (possibly with fewer transactions, or zero), sealed from
  /// the ids computed at admission. If `tx_ids` is set it receives them,
  /// tx_ids[i] == block.transactions[i].Id().
  TransactionBlock PackBlock(uint32_t shard, size_t max_count,
                             uint32_t creator, uint64_t round,
                             std::vector<TxId>* tx_ids = nullptr);

  size_t PendingInShard(uint32_t shard) const {
    return queues_[shard].pending();
  }
  size_t PendingTotal() const;

 private:
  struct Pooled {
    Transaction tx;
    TxId id;
  };
  // One shard's FIFO: entries[head..] are pending, oldest first. Drained
  // entries are reclaimed once they are half the vector.
  struct Queue {
    std::vector<Pooled> entries;
    size_t head = 0;
    size_t pending() const { return entries.size() - head; }
  };

  int shard_bits_;
  std::vector<Queue> queues_;
  FlatSet<DigestKey> seen_;  // Every id ever admitted.
};

}  // namespace porygon::tx

#endif  // PORYGON_TX_TXPOOL_H_
