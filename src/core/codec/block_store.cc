#include "core/codec/block_store.h"

#include "common/check.h"

namespace aec {

void BlockStore::put_block(const BlockKey& key, Block value) {
  put(key, value.to_bytes());
}

void BlockStore::put_blocks(std::vector<std::pair<BlockKey, Block>> items) {
  std::vector<std::pair<BlockKey, Bytes>> copies;
  copies.reserve(items.size());
  for (const auto& [key, value] : items)
    copies.emplace_back(key, value.to_bytes());
  put_batch(std::move(copies));
}

std::vector<Block> BlockStore::get_blocks(
    const std::vector<BlockKey>& keys) const {
  std::vector<Block> blocks;
  blocks.reserve(keys.size());
  for (std::optional<Bytes>& payload : get_batch(keys))
    blocks.push_back(payload ? Block::adopt(std::move(*payload)) : Block());
  return blocks;
}

Block BlockStore::get_block(const BlockKey& key) const {
  return std::move(get_blocks({key}).front());
}

const Bytes* BlockStore::find(const BlockKey& key) const {
  AEC_CHECK_MSG(false, "BlockStore::find(" << to_string(key)
                                           << ") is not a read: use "
                                              "get_blocks()");
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

void BlockNativeStore::put(const BlockKey& key, Bytes value) {
  put_block(key, Block::adopt(std::move(value)));
}

void BlockNativeStore::put_batch(
    std::vector<std::pair<BlockKey, Bytes>> items) {
  std::vector<std::pair<BlockKey, Block>> blocks;
  blocks.reserve(items.size());
  for (auto& [key, value] : items)
    blocks.emplace_back(key, Block::adopt(std::move(value)));
  put_blocks(std::move(blocks));
}

std::optional<Bytes> BlockNativeStore::get_copy(const BlockKey& key) const {
  const Block block = get_block(key);
  if (!block) return std::nullopt;
  return block.to_bytes();
}

std::vector<std::optional<Bytes>> BlockNativeStore::get_batch(
    const std::vector<BlockKey>& keys) const {
  std::vector<std::optional<Bytes>> payloads;
  payloads.reserve(keys.size());
  for (const Block& block : get_blocks(keys))
    payloads.push_back(block ? std::optional(block.to_bytes()) : std::nullopt);
  return payloads;
}

}  // namespace aec
