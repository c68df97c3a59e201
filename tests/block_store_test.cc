#include <gtest/gtest.h>

#include "core/codec/block_store.h"

namespace aec {
namespace {

TEST(BlockKey, FactoryAndAccessors) {
  const BlockKey d = BlockKey::data(42);
  EXPECT_TRUE(d.is_data());
  EXPECT_FALSE(d.is_parity());
  EXPECT_EQ(d.index, 42);

  const Edge e{StrandClass::kLeftHanded, 17};
  const BlockKey p = BlockKey::parity(e);
  EXPECT_TRUE(p.is_parity());
  EXPECT_EQ(p.edge(), e);
}

TEST(BlockKey, Equality) {
  EXPECT_EQ(BlockKey::data(5), BlockKey::data(5));
  EXPECT_NE(BlockKey::data(5), BlockKey::data(6));
  EXPECT_NE(BlockKey::data(5),
            BlockKey::parity(Edge{StrandClass::kHorizontal, 5}));
  EXPECT_NE(BlockKey::parity(Edge{StrandClass::kHorizontal, 5}),
            BlockKey::parity(Edge{StrandClass::kRightHanded, 5}));
}

TEST(BlockKey, HashSeparatesKindAndClass) {
  const BlockKeyHash hash;
  // Not a strict requirement of unordered_map, but collisions between
  // the few per-node keys would hurt every lookup.
  EXPECT_NE(hash(BlockKey::data(5)),
            hash(BlockKey::parity(Edge{StrandClass::kHorizontal, 5})));
  EXPECT_NE(hash(BlockKey::parity(Edge{StrandClass::kHorizontal, 5})),
            hash(BlockKey::parity(Edge{StrandClass::kRightHanded, 5})));
}

TEST(BlockKey, ToString) {
  EXPECT_EQ(to_string(BlockKey::data(26)), "d26");
  EXPECT_EQ(to_string(BlockKey::parity(Edge{StrandClass::kHorizontal, 21})),
            "p(H,21)");
  EXPECT_EQ(
      to_string(BlockKey::parity(Edge{StrandClass::kLeftHanded, 3})),
      "p(LH,3)");
}

}  // namespace
}  // namespace aec
