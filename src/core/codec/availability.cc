#include "core/codec/availability.h"

namespace aec {

bool block_order_less(const BlockKey& a, const BlockKey& b) noexcept {
  if (a.index != b.index) return a.index < b.index;
  if (a.kind != b.kind) return a.is_data();
  return static_cast<std::uint8_t>(a.cls) < static_cast<std::uint8_t>(b.cls);
}

Availability::Availability(const CodeParams& params, std::uint64_t n_nodes)
    : bytes_(n_nodes + 1, 0) {
  for (const StrandClass cls : params.classes()) class_bits_ |= parity_bit(cls);
}

void Availability::grow_to(std::uint64_t n_nodes) {
  if (n_nodes > this->n_nodes()) bytes_.resize(n_nodes + 1, 0);
}

std::vector<BlockKey> Availability::missing_keys() const {
  std::vector<BlockKey> keys;
  for (std::size_t i = 1; i < bytes_.size(); ++i) {
    const std::uint8_t b = bytes_[i];
    if ((b & kBlockBits) == 0) continue;
    const auto index = static_cast<NodeIndex>(i);
    if ((b & kDataBit) != 0) keys.push_back(BlockKey::data(index));
    for (const StrandClass cls : {StrandClass::kHorizontal,
                                  StrandClass::kRightHanded,
                                  StrandClass::kLeftHanded}) {
      if ((b & parity_bit(cls)) != 0)
        keys.push_back(BlockKey::parity(Edge{cls, index}));
    }
  }
  return keys;
}

}  // namespace aec
