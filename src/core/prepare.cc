#include "core/prepare.h"

namespace porygon::core {

PreparedBody PreparedBody::Of(ByteView block, const PrepareContext& /*ctx*/) {
  PreparedBody out;
  auto view = tx::BlockView::Parse(block);
  if (!view.ok()) return out;
  out.parsed = true;
  out.header = view->header;
  out.block_id = view->header.Id();
  std::vector<tx::TxId> tx_ids;
  if (!view->BodyMatchesHeader(&tx_ids)) return out;
  out.body_ok = true;
  out.txs.reserve(tx_ids.size());
  for (size_t i = 0; i < tx_ids.size(); ++i) {
    out.txs.push_back(ToAccess(view->Body(i), tx_ids[i]));
  }
  return out;
}

PreparedExecResult PreparedExecResult::Of(ByteView payload,
                                          const PrepareContext& ctx) {
  PreparedExecResult out;
  auto decoded = ExecResultMsg::Decode(payload);
  if (!decoded.ok()) return out;
  const ExecResultMsg& r = out.result.emplace(std::move(decoded).value());
  out.shard_ok = r.shard < ctx.shard_count;
  out.known_signer = ctx.stateless_keys->count(r.signer) > 0;
  if (!out.shard_ok || !out.known_signer) return out;
  out.signature_ok =
      ctx.provider->Verify(r.signer, r.SigningBytes(), r.signature);
  out.s_hash_ok =
      !r.full || ExecResultMsg::HashSSet(r.s_set) == r.s_hash;
  return out;
}

PreparedProposal PreparedProposal::Of(ByteView payload,
                                      const PrepareContext& /*ctx*/) {
  PreparedProposal out;
  auto decoded = tx::ProposalBlock::Decode(payload);
  if (!decoded.ok()) return out;
  // Hash the decoded block, never the received bytes: a varint may arrive
  // in an overlong, non-canonical encoding.
  out.hash = decoded->Hash();
  out.block.emplace(std::move(decoded).value());
  return out;
}

namespace {
template <typename T>
std::shared_ptr<runtime::TaskPool::Job> Start(const net::Message& msg,
                                              const PrepareContext& ctx,
                                              runtime::TaskPool* pool) {
  auto job = std::make_shared<PreparedJob<T>>(msg.payload, ctx);
  pool->Submit(job);
  return job;
}
}  // namespace

std::shared_ptr<runtime::TaskPool::Job> StartPrepare(
    const net::Message& msg, const PrepareContext& ctx,
    runtime::TaskPool* pool) {
  switch (msg.kind) {
    case kMsgTxBlock:
      return Start<PreparedBody>(msg, ctx, pool);
    case kMsgExecResult:
      return Start<PreparedExecResult>(msg, ctx, pool);
    case kMsgProposal:
      return Start<PreparedProposal>(msg, ctx, pool);
    default:
      return nullptr;
  }
}

}  // namespace porygon::core
