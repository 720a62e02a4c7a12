#include "tx/txpool.h"

#include <algorithm>

namespace porygon::tx {

TxPool::TxPool(int shard_bits)
    : shard_bits_(shard_bits), queues_(size_t{1} << shard_bits) {}

bool TxPool::Add(const Transaction& transaction) {
  return Add(transaction, transaction.Id());
}

bool TxPool::Add(const Transaction& transaction, const TxId& id) {
  if (!seen_.Insert(id)) return false;
  uint32_t shard = state::ShardOfAccount(transaction.from, shard_bits_);
  queues_[shard].entries.push_back(Pooled{transaction, id});
  return true;
}

TransactionBlock TxPool::PackBlock(uint32_t shard, size_t max_count,
                                   uint32_t creator, uint64_t round,
                                   std::vector<TxId>* tx_ids) {
  TransactionBlock block;
  block.header.creator_storage_node = creator;
  block.header.round_created = round;
  block.header.shard = shard;
  Queue& queue = queues_[shard];
  const size_t take = std::min(max_count, queue.pending());
  const auto first = queue.entries.begin() + static_cast<ptrdiff_t>(queue.head);
  const auto last = first + static_cast<ptrdiff_t>(take);
  block.transactions.reserve(take);
  std::vector<TxId> ids;
  ids.reserve(take);
  for (auto it = first; it != last; ++it) {
    block.transactions.push_back(it->tx);
    ids.push_back(it->id);
  }
  queue.head += take;
  if (queue.head == queue.entries.size()) {
    queue.entries.clear();
    queue.head = 0;
  } else if (2 * queue.head >= queue.entries.size()) {
    queue.entries.erase(queue.entries.begin(), last);
    queue.head = 0;
  }
  block.SealHeader(ids);
  if (tx_ids != nullptr) *tx_ids = std::move(ids);
  return block;
}

size_t TxPool::PendingTotal() const {
  size_t total = 0;
  for (const Queue& q : queues_) total += q.pending();
  return total;
}

}  // namespace porygon::tx
