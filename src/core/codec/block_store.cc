#include "core/codec/block_store.h"

#include "common/check.h"

namespace aec {

const Bytes* BlockStore::find(const BlockKey& key) const {
  AEC_CHECK_MSG(false, "BlockStore::find(" << to_string(key)
                                           << ") is not a read: use "
                                              "get_copy() or get_batch()");
  return nullptr;
}

std::vector<std::optional<Bytes>> BlockStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::vector<std::optional<Bytes>> payloads;
  payloads.reserve(keys.size());
  for (const BlockKey& key : keys) payloads.push_back(get_copy(key));
  return payloads;
}

void BlockStore::put_batch(std::vector<std::pair<BlockKey, Bytes>> items) {
  for (auto& [key, value] : items) put(key, std::move(value));
}

}  // namespace aec
