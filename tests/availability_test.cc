// aec::Availability, the one availability type the repair planner, the
// simulation and the health census share: which keys it covers (the
// same rule as lattice_expects), that set() reports only real flips,
// that missing_keys() walks in the planner's block order, that growth
// keeps earlier state, and that the owner's bits stay out of the way.
// The block order is the test's own, never the library's comparator.
#include "core/codec/availability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace aec {
namespace {

constexpr StrandClass kAllClasses[] = {StrandClass::kHorizontal,
                                       StrandClass::kRightHanded,
                                       StrandClass::kLeftHanded};

/// AE(1,-,-), AE(2,2,5) and AE(3,2,5): one, two and three classes.
std::vector<CodeParams> codes() {
  return {CodeParams::single(), CodeParams(2, 2, 5), CodeParams(3, 2, 5)};
}

/// Every key an open lattice of n nodes stores.
std::vector<BlockKey> universe(const CodeParams& params, std::uint64_t n) {
  std::vector<BlockKey> keys;
  for (NodeIndex i = 1; static_cast<std::uint64_t>(i) <= n; ++i) {
    keys.push_back(BlockKey::data(i));
    for (const StrandClass cls : params.classes())
      keys.push_back(BlockKey::parity(Edge{cls, i}));
  }
  return keys;
}

bool block_order(const BlockKey& a, const BlockKey& b) {
  return std::tie(a.index, a.kind, a.cls) < std::tie(b.index, b.kind, b.cls);
}

TEST(AvailabilityTest, FreshMapReportsEveryCoveredKeyPresent) {
  for (const CodeParams& params : codes()) {
    const Availability avail(params, 40);
    EXPECT_EQ(avail.n_nodes(), 40u);
    for (const BlockKey& key : universe(params, 40)) {
      ASSERT_TRUE(avail.covers(key)) << params.name() << " " << to_string(key);
      EXPECT_TRUE(avail.ok(key)) << params.name() << " " << to_string(key);
      if (key.is_data())
        EXPECT_TRUE(avail.data_ok(key.index));
      else
        EXPECT_TRUE(avail.parity_ok(key.edge()));
    }
    EXPECT_TRUE(avail.missing_keys().empty()) << params.name();
  }
}

TEST(AvailabilityTest, CoversOnlyTheLatticesKeys) {
  constexpr std::uint64_t kNodes = 30;
  const Availability single(CodeParams::single(), kNodes);
  const Availability two(CodeParams(2, 2, 5), kNodes);
  for (const Availability* avail : {&single, &two}) {
    EXPECT_FALSE(avail->covers(BlockKey::data(0)));
    EXPECT_FALSE(avail->covers(BlockKey::data(kNodes + 1)));
    EXPECT_FALSE(avail->covers(
        BlockKey::parity(Edge{StrandClass::kHorizontal, 0})));
    EXPECT_FALSE(avail->covers(
        BlockKey::parity(Edge{StrandClass::kHorizontal, kNodes + 1})));
    EXPECT_TRUE(avail->covers(BlockKey::data(kNodes)));
    EXPECT_TRUE(avail->covers(
        BlockKey::parity(Edge{StrandClass::kHorizontal, kNodes})));
  }
  // A class the code does not use.
  EXPECT_FALSE(single.covers(
      BlockKey::parity(Edge{StrandClass::kRightHanded, 5})));
  EXPECT_FALSE(single.covers(
      BlockKey::parity(Edge{StrandClass::kLeftHanded, 5})));
  EXPECT_TRUE(two.covers(BlockKey::parity(Edge{StrandClass::kRightHanded, 5})));
  EXPECT_FALSE(two.covers(BlockKey::parity(Edge{StrandClass::kLeftHanded, 5})));

  // The same rule as lattice_expects, key for key.
  for (const CodeParams& params : codes()) {
    const Availability avail(params, kNodes);
    for (NodeIndex i = -1; i <= static_cast<NodeIndex>(kNodes) + 2; ++i) {
      std::vector<BlockKey> keys{BlockKey::data(i)};
      for (const StrandClass cls : kAllClasses)
        keys.push_back(BlockKey::parity(Edge{cls, i}));
      for (const BlockKey& key : keys)
        EXPECT_EQ(avail.covers(key), lattice_expects(params, kNodes, key))
            << params.name() << " " << to_string(key);
    }
  }
}

TEST(AvailabilityTest, SetReportsAFlipOnlyWhenTheStateChanges) {
  Availability avail(CodeParams(3, 2, 5), 20);
  const BlockKey data = BlockKey::data(7);
  const BlockKey parity = BlockKey::parity(Edge{StrandClass::kLeftHanded, 7});

  EXPECT_FALSE(avail.set(data, /*present=*/true));  // already present
  EXPECT_TRUE(avail.set(data, /*present=*/false));
  EXPECT_FALSE(avail.set(data, /*present=*/false));
  EXPECT_FALSE(avail.data_ok(7));
  EXPECT_FALSE(avail.ok(data));
  // Same byte, other bits: untouched.
  EXPECT_TRUE(avail.ok(parity));
  EXPECT_TRUE(avail.parity_ok(Edge{StrandClass::kHorizontal, 7}));

  EXPECT_TRUE(avail.set(parity, /*present=*/false));
  EXPECT_FALSE(avail.parity_ok(parity.edge()));
  EXPECT_TRUE(avail.set(data, /*present=*/true));
  EXPECT_FALSE(avail.set(data, /*present=*/true));
  EXPECT_TRUE(avail.data_ok(7));
  EXPECT_FALSE(avail.ok(parity));
  EXPECT_TRUE(avail.set(parity, /*present=*/true));
  EXPECT_TRUE(avail.missing_keys().empty());
}

TEST(AvailabilityTest, MissingKeysWalkInBlockOrder) {
  constexpr std::uint64_t kNodes = 200;
  Rng rng(31);
  for (const CodeParams& params : codes()) {
    Availability avail(params, kNodes);
    std::vector<BlockKey> set_keys;
    for (const BlockKey& key : universe(params, kNodes)) {
      if (!rng.bernoulli(0.3)) continue;
      avail.set(key, /*present=*/false);
      set_keys.push_back(key);
    }
    // Set in a shuffled order, so the walk cannot echo the input order.
    for (std::size_t k = set_keys.size(); k > 1; --k)
      std::swap(set_keys[k - 1], set_keys[rng.uniform(k)]);
    Availability shuffled(params, kNodes);
    for (const BlockKey& key : set_keys) shuffled.set(key, false);

    std::sort(set_keys.begin(), set_keys.end(), block_order);
    EXPECT_EQ(avail.missing_keys(), set_keys) << params.name();
    EXPECT_EQ(shuffled.missing_keys(), set_keys) << params.name();
  }
}

TEST(AvailabilityTest, GrowKeepsEarlierBitsAndAddsPresentNodes) {
  const CodeParams params(3, 2, 5);
  Availability avail(params, 10);
  const BlockKey d4 = BlockKey::data(4);
  const BlockKey p10 = BlockKey::parity(Edge{StrandClass::kRightHanded, 10});
  avail.set(d4, false);
  avail.set(p10, false);
  avail.set_owner_bits(4, 3);
  EXPECT_FALSE(avail.covers(BlockKey::data(11)));

  avail.grow_to(25);
  EXPECT_EQ(avail.n_nodes(), 25u);
  EXPECT_FALSE(avail.ok(d4));
  EXPECT_FALSE(avail.ok(p10));
  EXPECT_EQ(avail.owner_bits(4), 3u);
  for (const BlockKey& key : universe(params, 25)) {
    if (key.index <= 10) continue;
    EXPECT_TRUE(avail.covers(key)) << to_string(key);
    EXPECT_TRUE(avail.ok(key)) << to_string(key);
  }
  EXPECT_EQ(avail.missing_keys(), (std::vector<BlockKey>{d4, p10}));

  avail.grow_to(5);  // never shrinks
  EXPECT_EQ(avail.n_nodes(), 25u);
  EXPECT_FALSE(avail.ok(d4));
}

TEST(AvailabilityTest, OwnerBitsAndMissingBitsAreIndependent) {
  Availability avail(CodeParams(3, 2, 5), 8);
  for (NodeIndex i = 1; i <= 8; ++i)
    avail.set_owner_bits(i, static_cast<std::uint8_t>(i & 15));
  EXPECT_TRUE(avail.missing_keys().empty());

  const BlockKey lh = BlockKey::parity(Edge{StrandClass::kLeftHanded, 5});
  EXPECT_TRUE(avail.set(lh, false));
  EXPECT_EQ(avail.owner_bits(5), 5u);
  avail.set_owner_bits(5, 15);
  EXPECT_FALSE(avail.ok(lh));
  EXPECT_TRUE(avail.data_ok(5));
  avail.set_owner_bits(5, 0);
  EXPECT_FALSE(avail.ok(lh));
  EXPECT_EQ(avail.missing_keys(), std::vector<BlockKey>{lh});
}

TEST(AvailabilityTest, ZeroNodesIsValidAndEmpty) {
  for (const CodeParams& params : codes()) {
    Availability avail(params, 0);
    EXPECT_EQ(avail.n_nodes(), 0u);
    EXPECT_FALSE(avail.covers(BlockKey::data(0)));
    EXPECT_FALSE(avail.covers(BlockKey::data(1)));
    EXPECT_FALSE(
        avail.covers(BlockKey::parity(Edge{StrandClass::kHorizontal, 1})));
    EXPECT_TRUE(avail.missing_keys().empty());
    avail.grow_to(3);
    EXPECT_TRUE(avail.covers(BlockKey::data(3)));
    EXPECT_TRUE(avail.ok(BlockKey::data(3)));
  }
  const Availability none;
  EXPECT_EQ(none.n_nodes(), 0u);
  EXPECT_FALSE(none.covers(BlockKey::data(1)));
  EXPECT_TRUE(none.missing_keys().empty());
}

}  // namespace
}  // namespace aec
