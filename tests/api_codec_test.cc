// Tests for aec::Codec: spec parsing for every family, and one
// conformance suite run over the stripe codecs' group API (RS, REP).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "api/codec.h"
#include "common/check.h"
#include "common/rng.h"

namespace aec {
namespace {

TEST(CodecRegistry, SpecsRoundTripThroughId) {
  for (const char* spec :
       {"AE(3,2,5)", "AE(2,2,5)", "AE(1,-,-)", "AE(3,256,256)", "RS(10,4)",
        "RS(4,2)", "REP(3)", "REP(1)", "REP(256)"}) {
    const auto codec = make_codec(spec);
    ASSERT_NE(codec, nullptr) << spec;
    EXPECT_EQ(codec->id(), spec);
    // id() must itself be a valid spec.
    EXPECT_EQ(make_codec(codec->id())->id(), codec->id());
  }
  // AE(1) is shorthand for the single-entanglement chain.
  EXPECT_EQ(make_codec("AE(1)")->id(), "AE(1,-,-)");
}

TEST(CodecRegistry, RejectsInvalidSpecs) {
  for (const char* spec : {
           "",            // empty
           "AE",          // no arguments
           "AE()",        // empty argument list
           "AE(3,2)",     // wrong arity
           "AE(3,2,5",    // unterminated
           "AE(3,2,5)x",  // trailing junk
           "AE(0,1,1)",   // invalid alpha
           "AE(2,5,2)",   // deformed lattice: p < s
           "AE(a,b,c)",   // non-numeric
           "AE(3,2,257)", // p past the bound (256)
           "AE(3,257,257)", // s and p past the bound
           "AE(3,2,999999999)", // nine digits parse, past the bound
           "RS(4,0)",     // m = 0
           "RS(0,4)",     // k = 0
           "RS(200,100)", // k + m > 256
           "RS(4)",       // wrong arity
           "REP(0)",      // zero copies
           "REP(257)",    // copies past the bound (256)
           "REP(2,3)",    // wrong arity
           "REP(-)",      // wildcard outside AE(1,-,-)
           "XYZ(1,2)",    // unknown family
       })
    EXPECT_THROW(make_codec(spec), CheckError) << "spec: " << spec;
}

// --- conformance suite ------------------------------------------------------

struct ConformanceCase {
  const char* spec;
  std::uint32_t n_data;
  /// A multi-part erasure the codec must fully recover.
  PartIndexList repairable;
  /// An erasure beyond the codec's correction capability; empty means
  /// "every part of the group" (computed in the test).
  PartIndexList irreparable;
};

void PrintTo(const ConformanceCase& c, std::ostream* os) { *os << c.spec; }

class CodecConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(CodecConformance, EncodeRepairRoundTrip) {
  const ConformanceCase& test_case = GetParam();
  const auto codec = std::dynamic_pointer_cast<const StripeCodec>(
      std::shared_ptr<const Codec>(make_codec(test_case.spec)));
  ASSERT_NE(codec, nullptr);
  const std::uint32_t n = test_case.n_data;
  ASSERT_EQ(codec->data_parts(), n);

  constexpr std::size_t kBlockSize = 64;
  Rng rng(20260727);
  std::vector<Bytes> data;
  for (std::uint32_t i = 0; i < n; ++i)
    data.push_back(rng.random_block(kBlockSize));

  const std::vector<Bytes> parities = codec->encode(data);
  ASSERT_EQ(parities.size(), codec->parity_parts());
  const std::uint32_t total = n + codec->parity_parts();

  std::vector<std::optional<Bytes>> intact(total);
  for (std::uint32_t p = 0; p < n; ++p) intact[p] = data[p];
  for (std::uint32_t p = n; p < total; ++p) intact[p] = parities[p - n];
  const auto part_payload = [&](PartIndex p) -> const Bytes& {
    return p < n ? data[p] : parities[p - n];
  };
  const auto erase_parts = [&](const PartIndexList& erased) {
    auto parts = intact;
    for (const PartIndex p : erased) parts[p].reset();
    return parts;
  };

  // Empty erasure: trivially repairable, nothing to rebuild.
  EXPECT_TRUE(codec->can_repair({}));
  const auto nothing = codec->repair(intact, {});
  ASSERT_TRUE(nothing.has_value());
  EXPECT_TRUE(nothing->empty());

  // Every single-part erasure is repairable, byte-identically.
  for (const PartIndex p :
       PartIndexList{0, n - 1, n, total - 1}) {
    const PartIndexList erased{p};
    EXPECT_TRUE(codec->can_repair(erased)) << "part " << p;
    const auto reads = codec->repair_indices(erased);
    ASSERT_TRUE(reads.has_value()) << "part " << p;
    EXPECT_FALSE(reads->empty());
    const auto rebuilt = codec->repair(erase_parts(erased), erased);
    ASSERT_TRUE(rebuilt.has_value()) << "part " << p;
    ASSERT_EQ(rebuilt->size(), 1u);
    EXPECT_EQ(rebuilt->front(), part_payload(p)) << "part " << p;
  }

  // The case's multi-part erasure.
  {
    const PartIndexList& erased = test_case.repairable;
    EXPECT_TRUE(codec->can_repair(erased));
    const auto reads = codec->repair_indices(erased);
    ASSERT_TRUE(reads.has_value());
    // Sorted, duplicate-free, surviving parts only, in range.
    EXPECT_TRUE(std::is_sorted(reads->begin(), reads->end()));
    EXPECT_EQ(std::adjacent_find(reads->begin(), reads->end()),
              reads->end());
    for (const PartIndex p : *reads) {
      EXPECT_LT(p, total);
      EXPECT_FALSE(
          std::binary_search(erased.begin(), erased.end(), p));
    }
    const auto rebuilt = codec->repair(erase_parts(erased), erased);
    ASSERT_TRUE(rebuilt.has_value());
    ASSERT_EQ(rebuilt->size(), erased.size());
    for (std::size_t e = 0; e < erased.size(); ++e)
      EXPECT_EQ((*rebuilt)[e], part_payload(erased[e])) << "erased index "
                                                        << erased[e];
  }

  // Beyond the correction capability: consistent refusal everywhere.
  {
    PartIndexList erased = test_case.irreparable;
    if (erased.empty()) {  // default: the whole group is gone
      erased.resize(total);
      std::iota(erased.begin(), erased.end(), 0);
    }
    EXPECT_FALSE(codec->can_repair(erased));
    EXPECT_FALSE(codec->repair_indices(erased).has_value());
    if (erased.size() < total) {  // repair() needs ≥ 1 present block
      EXPECT_FALSE(codec->repair(erase_parts(erased), erased).has_value());
    }
  }

  // Malformed erased lists are contract violations.
  EXPECT_THROW(codec->can_repair({total}), CheckError);
  EXPECT_THROW(codec->can_repair({1, 1}), CheckError);
  EXPECT_THROW(codec->can_repair({2, 1}), CheckError);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CodecConformance,
    ::testing::Values(
        // RS: any ≤ m erasures recover; m+1 in one stripe do not.
        ConformanceCase{"RS(10,4)", 10, {0, 5, 11, 13}, {0, 1, 2, 3, 4}},
        ConformanceCase{"RS(4,2)", 4, {1, 4}, {0, 2, 5}},
        // REP(3): any survivor suffices; all three gone is final.
        ConformanceCase{"REP(3)", 1, {0, 2}, {0, 1, 2}}));

TEST(RsCodecLocality, SingleFailureReadsK) {
  const RsCodec codec(10, 4);
  const auto reads = codec.repair_indices({7});
  ASSERT_TRUE(reads.has_value());
  EXPECT_EQ(reads->size(), 10u);
}

}  // namespace
}  // namespace aec
