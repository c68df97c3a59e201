// Minimal-erasure search vs the paper's reported pattern sizes
// (Figs 6, 7 and the §I examples) plus independent decoder verification.
#include <gtest/gtest.h>

#include <tuple>

#include "common/check.h"
#include "core/analysis/me_search.h"

namespace aec {
namespace {

std::uint64_t me_size(CodeParams params, std::uint32_t x) {
  const MinimalErasureSearch search(std::move(params));
  const auto size = search.me_size(x);
  EXPECT_TRUE(size.has_value());
  return size.value_or(0);
}

TEST(MinimalErasure, PrimitiveFormI) {
  // Fig 6: AE(1) cannot tolerate two adjacent nodes + the shared edge.
  EXPECT_EQ(me_size(CodeParams::single(), 2), 3u);
}

TEST(MinimalErasure, ComplexFormA) {
  // Fig 7 pattern A: α=2, s=1, p=1 → |ME(2)| = 4.
  EXPECT_EQ(me_size(CodeParams(2, 1, 1), 2), 4u);
}

TEST(MinimalErasure, ComplexFormB) {
  // Fig 7 pattern B: α=3, s=1, p=1 → |ME(2)| = 5.
  EXPECT_EQ(me_size(CodeParams(3, 1, 1), 2), 5u);
}

TEST(MinimalErasure, ComplexFormC) {
  // Fig 7 pattern C / §I: AE(3,1,4) → |ME(2)| = 8.
  EXPECT_EQ(me_size(CodeParams(3, 1, 4), 2), 8u);
}

TEST(MinimalErasure, ComplexFormD) {
  // Fig 7 pattern D / §I: AE(3,4,4) → |ME(2)| = 14.
  EXPECT_EQ(me_size(CodeParams(3, 4, 4), 2), 14u);
}

TEST(MinimalErasure, Me1DoesNotExist) {
  const MinimalErasureSearch search(CodeParams(3, 2, 5));
  EXPECT_FALSE(search.find_minimal_erasure(1).has_value());
}

TEST(MinimalErasure, SquarePatternForAlpha2) {
  // Fig 9 discussion: with α=2 redundancy propagates across a square
  // (4 nodes + 4 edges): |ME(4)| = 8 regardless of s and p.
  EXPECT_EQ(me_size(CodeParams(2, 2, 2), 4), 8u);
  EXPECT_EQ(me_size(CodeParams(2, 2, 5), 4), 8u);
  EXPECT_EQ(me_size(CodeParams(2, 3, 4), 4), 8u);
}

using Param = std::tuple<int, int, int>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [a, s, p] = info.param;
  return "AE_" + std::to_string(a) + "_" + std::to_string(s) + "_" +
         std::to_string(p);
}


class Me2ClosedForm : public ::testing::TestWithParam<Param> {};

TEST_P(Me2ClosedForm, SearchMatchesClosedForm) {
  const auto [a, s, p] = GetParam();
  const CodeParams params(static_cast<std::uint32_t>(a),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(p));
  const MinimalErasureSearch search(params);
  const auto size = search.me_size(2);
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, MinimalErasureSearch::me2_closed_form(params));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Me2ClosedForm,
    ::testing::Values(Param{1, 1, 0}, Param{2, 1, 1}, Param{2, 1, 3},
                      Param{2, 2, 2}, Param{2, 2, 4}, Param{2, 3, 3},
                      Param{2, 3, 6}, Param{3, 1, 1}, Param{3, 1, 4},
                      Param{3, 2, 2}, Param{3, 2, 5}, Param{3, 3, 3},
                      Param{3, 3, 5}, Param{3, 4, 4}),
    param_name);

TEST(MinimalErasure, Me2GrowsWithPWithoutExtraStorage) {
  // Fig 8's qualitative claim: for fixed α and s, |ME(2)| increases with
  // p — fault tolerance for free (no storage overhead change).
  std::uint64_t previous = 0;
  for (std::uint32_t p = 2; p <= 8; ++p) {
    const std::uint64_t size = me_size(CodeParams(3, 2, p), 2);
    EXPECT_GT(size, previous);
    previous = size;
  }
}

TEST(MinimalErasure, Me2MinimalAtSEqualsP) {
  // Fig 8: |ME(2)| is minimal when s = p.
  for (std::uint32_t s = 2; s <= 3; ++s) {
    const std::uint64_t at_equal = me_size(CodeParams(3, s, s), 2);
    for (std::uint32_t p = s + 1; p <= 6; ++p)
      EXPECT_LT(at_equal, me_size(CodeParams(3, s, p), 2));
  }
}

TEST(MinimalErasure, PatternsVerifyAgainstPlanner) {
  // The found patterns must (a) deadlock the repair planner the byte
  // codec executes and (b) be irreducible.
  for (auto params :
       {CodeParams::single(), CodeParams(2, 1, 1), CodeParams(2, 2, 2),
        CodeParams(3, 1, 4), CodeParams(3, 2, 2)}) {
    const MinimalErasureSearch search(params);
    const auto pattern = search.find_minimal_erasure(2);
    ASSERT_TRUE(pattern.has_value()) << params.name();
    EXPECT_TRUE(verify_minimal_erasure(params, *pattern)) << params.name();
  }
}

TEST(MinimalErasure, Me4PatternVerifiesAgainstPlanner) {
  const CodeParams params(2, 2, 2);
  const MinimalErasureSearch search(params);
  const auto pattern = search.find_minimal_erasure(4);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->size(), 8u);
  EXPECT_TRUE(verify_minimal_erasure(params, *pattern));
}

TEST(MinimalErasure, NonMinimalPatternRejectedByVerifier) {
  // A pattern with a superfluous block must fail the irreducibility leg.
  const CodeParams params = CodeParams::single();
  const MinimalErasureSearch search(params);
  auto pattern = search.find_minimal_erasure(2);
  ASSERT_TRUE(pattern.has_value());
  ErasurePattern padded = *pattern;
  // Add a far-away lone parity: it is repairable, so property (a) fails.
  padded.edges.push_back(Edge{StrandClass::kHorizontal,
                              pattern->nodes.front() + 40});
  EXPECT_FALSE(verify_minimal_erasure(params, padded));
}

TEST(MinimalErasure, PatternSizesAccounting) {
  const MinimalErasureSearch search(CodeParams(3, 1, 4));
  const auto pattern = search.find_minimal_erasure(2);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_EQ(pattern->nodes.size(), 2u);
  EXPECT_EQ(pattern->edges.size(), 6u);  // 8 total − 2 nodes
}

TEST(MinimalErasure, ProfileForSingleEntanglement) {
  // AE(1): one pattern per partner distance t — sizes 3, 4, 5, …
  const MinimalErasureSearch search(CodeParams::single());
  const auto profile = search.pattern_profile(2, 6);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_EQ(profile.at(3), 1u);
  EXPECT_EQ(profile.at(4), 1u);
  EXPECT_EQ(profile.at(5), 1u);
  EXPECT_EQ(profile.at(6), 1u);
}

TEST(MinimalErasure, ProfileIsSparserForStrongerCodes) {
  // MEL-density comparison: within the same size budget, AE(3,2,5) has
  // strictly fewer fatal 2-data-block patterns per node than AE(2,2,2).
  const auto weak = MinimalErasureSearch(CodeParams(2, 2, 2))
                        .pattern_profile(2, 24);
  const auto strong = MinimalErasureSearch(CodeParams(3, 2, 5))
                          .pattern_profile(2, 24);
  std::uint64_t weak_total = 0;
  std::uint64_t strong_total = 0;
  for (const auto& [size, count] : weak) weak_total += count;
  for (const auto& [size, count] : strong) strong_total += count;
  EXPECT_GT(weak_total, strong_total);
  // The smallest entries match the closed forms.
  EXPECT_EQ(weak.begin()->first,
            MinimalErasureSearch::me2_closed_form(CodeParams(2, 2, 2)));
  EXPECT_EQ(strong.begin()->first,
            MinimalErasureSearch::me2_closed_form(CodeParams(3, 2, 5)));
}

TEST(MinimalErasure, ProfileSizesAreWrapMultiples) {
  // For α ≥ 2 the partners sit at whole-wrap offsets: sizes form the
  // arithmetic progression 2 + t·(p + (α−1)·s).
  const CodeParams params(3, 2, 5);
  const auto profile =
      MinimalErasureSearch(params).pattern_profile(2, 30);
  ASSERT_GE(profile.size(), 3u);
  std::uint64_t expected = 2 + 5 + 2 * 2;  // t = 1
  for (const auto& [size, count] : profile) {
    EXPECT_EQ(size, expected);
    EXPECT_EQ(count, 1u);
    expected += 5 + 2 * 2;
  }
}

TEST(MinimalErasure, ProfileValidation) {
  const MinimalErasureSearch search(CodeParams(3, 2, 5));
  EXPECT_THROW(search.pattern_profile(4, 20), CheckError);
  EXPECT_THROW(search.pattern_profile(2, 2), CheckError);
}

}  // namespace
}  // namespace aec
