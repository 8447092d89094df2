// The wide (>64 PI) InputVec path, end to end:
//  - InputVec word/bit/shift/slice/hash algebra (the type every test vector
//    now rides on);
//  - XTwoVectorTest::compatible/merged property tests past one word;
//  - the randomized engine-vs-legacy oracle swept across PI widths
//    1/63/64/65/128/200 — the legacy scalar simulators stay the semantics
//    reference at every width, and every lane x thread configuration
//    must match them bit for bit;
//  - scan machinery on a 70-flop chain (140-input scan view).
#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "atpg/atpg.hpp"
#include "logic/zoo.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::InputVec;

TEST(InputVec, OneWordFastPathAndWordAccess) {
  InputVec v(0xdeadbeefull);
  EXPECT_EQ(v.nwords(), 1u);  // no overflow storage for narrow vectors
  EXPECT_EQ(v.u64(), 0xdeadbeefull);
  EXPECT_EQ(v.word(3), 0u);
  v.set_bit(200);
  EXPECT_EQ(v.nwords(), 4u);
  EXPECT_TRUE(v.bit(200));
  EXPECT_FALSE(v.bit(199));
  v.set_bit(200, false);
  EXPECT_EQ(v.nwords(), 1u);  // trailing zero words trim away
  EXPECT_EQ(v, InputVec(0xdeadbeefull));
}

TEST(InputVec, EqualityAndOrderIgnoreTrailingZeros) {
  InputVec a(7), b(7);
  b.set_word(3, 1);
  b.set_word(3, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  InputVec c;
  c.set_bit(100);
  EXPECT_LT(a, c);
  EXPECT_GT(c, b);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(InputVec, ShiftSliceMaskRoundTrip) {
  util::Prng prng(0x51de);
  for (int trial = 0; trial < 50; ++trial) {
    const InputVec lo = InputVec::random(90, prng);
    const InputVec hi = InputVec::random(70, prng);
    const InputVec packed = lo | (hi << 90);
    EXPECT_EQ(packed.slice(0, 90), lo);
    EXPECT_EQ(packed >> 90, hi);
    EXPECT_EQ(packed.slice(90, 70), hi);
    // Per-bit agreement with the word-free definition.
    for (std::size_t i : {0ul, 63ul, 64ul, 89ul, 90ul, 159ul})
      EXPECT_EQ(packed.bit(i), i < 90 ? lo.bit(i) : hi.bit(i - 90)) << i;
  }
}

TEST(InputVec, BitwiseOpsMatchPerBit) {
  util::Prng prng(0xb1f5);
  for (int trial = 0; trial < 20; ++trial) {
    const InputVec a = InputVec::random(150, prng);
    const InputVec b = InputVec::random(150, prng);
    const InputVec iand = a & b, ior = a | b, ixor = a ^ b,
                   inot = and_not(a, b);
    for (std::size_t i = 0; i < 150; ++i) {
      EXPECT_EQ(iand.bit(i), a.bit(i) && b.bit(i));
      EXPECT_EQ(ior.bit(i), a.bit(i) || b.bit(i));
      EXPECT_EQ(ixor.bit(i), a.bit(i) != b.bit(i));
      EXPECT_EQ(inot.bit(i), a.bit(i) && !b.bit(i));
    }
    EXPECT_EQ((a ^ a), InputVec{});
    EXPECT_EQ(ixor.popcount() + 2 * iand.popcount(),
              a.popcount() + b.popcount());
  }
}

TEST(InputVec, MaskAndBroadcast) {
  EXPECT_EQ(InputVec::mask(0), InputVec{});
  EXPECT_EQ(InputVec::mask(64), InputVec(~0ull));
  EXPECT_EQ(InputVec::mask(130).popcount(), 130);
  EXPECT_FALSE(InputVec::mask(130).bit(130));
  EXPECT_TRUE(InputVec::mask(130).bit(129));
  EXPECT_EQ(InputVec::broadcast(true, 100), InputVec::mask(100));
  EXPECT_EQ(InputVec::broadcast(false, 100), InputVec{});
}

TEST(InputVec, HashableInUnorderedContainers) {
  util::Prng prng(0x4a53);
  std::unordered_set<InputVec> seen;
  for (int i = 0; i < 200; ++i) seen.insert(InputVec::random(150, prng));
  EXPECT_GT(seen.size(), 190u);  // collisions in value, not storage shape
  EXPECT_TRUE(seen.count(*seen.begin()));
}

TEST(WidePatterns, AllOrderedPairsValidatesWidth) {
  // Satellite: the silent n_pis <= 16 precondition is now a diagnostic.
  EXPECT_THROW(all_ordered_pairs(17), std::invalid_argument);
  EXPECT_THROW(all_ordered_pairs(-1), std::invalid_argument);
  EXPECT_EQ(all_ordered_pairs(2).size(), 12u);  // in-range still works
}

TEST(WidePatterns, RandomPairsSpanAllWords) {
  const auto tests = random_pairs(200, 64, 0x1de7);
  InputVec any;
  for (const auto& t : tests) {
    any |= t.v1 | t.v2;
    EXPECT_EQ(and_not(t.v1, InputVec::mask(200)), InputVec{});
  }
  // 64 random draws leave no 64-bit word empty (probability ~0).
  for (std::size_t w = 0; w < 4; ++w) EXPECT_NE(any.word(w), 0u) << w;
}

TEST(XWide, CompatibleAndMergedPastOneWord) {
  util::Prng prng(0xcafe);
  const std::size_t width = 150;
  for (int trial = 0; trial < 200; ++trial) {
    XTwoVectorTest a, b;
    a.v1.care_mask = InputVec::random(width, prng);
    a.v2.care_mask = InputVec::random(width, prng);
    a.v1.bits = InputVec::random(width, prng) & a.v1.care_mask;
    a.v2.bits = InputVec::random(width, prng) & a.v2.care_mask;
    b.v1.care_mask = InputVec::random(width, prng);
    b.v2.care_mask = InputVec::random(width, prng);
    b.v1.bits = InputVec::random(width, prng) & b.v1.care_mask;
    b.v2.bits = InputVec::random(width, prng) & b.v2.care_mask;

    // compatible() is exactly "no conflicting care bit in either frame".
    bool conflict = false;
    for (std::size_t i = 0; i < width; ++i) {
      if (a.v1.care_mask.bit(i) && b.v1.care_mask.bit(i) &&
          a.v1.bits.bit(i) != b.v1.bits.bit(i))
        conflict = true;
      if (a.v2.care_mask.bit(i) && b.v2.care_mask.bit(i) &&
          a.v2.bits.bit(i) != b.v2.bits.bit(i))
        conflict = true;
    }
    EXPECT_EQ(a.compatible(b), !conflict);
    EXPECT_TRUE(a.compatible(a));

    if (!a.compatible(b)) continue;
    const XTwoVectorTest m = a.merged(b);
    EXPECT_EQ(m.v1.care_mask, a.v1.care_mask | b.v1.care_mask);
    EXPECT_EQ(m.v2.care_mask, a.v2.care_mask | b.v2.care_mask);
    // The merge agrees with each constituent on that constituent's cares.
    for (const XTwoVectorTest* t : {&a, &b}) {
      EXPECT_EQ((m.v1.bits ^ t->v1.bits) & t->v1.care_mask, InputVec{});
      EXPECT_EQ((m.v2.bits ^ t->v2.bits) & t->v2.care_mask, InputVec{});
    }
    // Merged don't-cares fall back to 0.
    EXPECT_EQ(and_not(m.v1.bits, m.v1.care_mask), InputVec{});
  }
}

// --- Engine-vs-legacy oracle across PI widths --------------------------------

class WideOracleTest : public testing::TestWithParam<int> {};

TEST_P(WideOracleTest, MatricesMatchLegacyAtEveryWidth) {
  const int n_pis = GetParam();
  const logic::Circuit c =
      logic::random_circuit(n_pis, std::max(40, n_pis * 2), 1 + n_pis / 4,
                            0x0b5e55ed + static_cast<std::uint64_t>(n_pis));
  ASSERT_EQ(c.inputs().size(), static_cast<std::size_t>(n_pis));
  oracle::sweep_matrices(c, /*n_tests=*/24, 0x31d3);
}

TEST_P(WideOracleTest, CampaignsMatchSingleThreadAtEveryWidth) {
  const int n_pis = GetParam();
  const logic::Circuit c =
      logic::random_circuit(n_pis, std::max(40, n_pis * 2), 1 + n_pis / 4,
                            0xd20b + static_cast<std::uint64_t>(n_pis) * 31);
  oracle::sweep_campaigns(c, /*n_tests=*/96, 0x5eed, /*drop=*/true);
  oracle::sweep_campaigns(c, /*n_tests=*/96, 0x5eed, /*drop=*/false);
}

INSTANTIATE_TEST_SUITE_P(PiWidths, WideOracleTest,
                         testing::Values(1, 63, 64, 65, 128, 200));

TEST(WideOracle, XAwareDefiniteObdSoundAt150Pis) {
  // definite_obd through the word-strided care plumbing: anything proven
  // definite must hold for random fills of the X bits (Kleene soundness).
  const logic::Circuit c = logic::random_circuit(150, 300, 20, 0x50fa);
  const auto faults = enumerate_obd_faults(c);
  FaultSimEngine engine(c);
  util::Prng prng(0xf111);
  for (int trial = 0; trial < 10; ++trial) {
    XTwoVectorTest xt;
    xt.v1.care_mask = InputVec::random(150, prng);
    xt.v2.care_mask = InputVec::random(150, prng);
    xt.v1.bits = InputVec::random(150, prng) & xt.v1.care_mask;
    xt.v2.bits = InputVec::random(150, prng) & xt.v2.care_mask;
    const std::vector<bool> definite = engine.definite_obd(xt, faults);
    for (int fill = 0; fill < 4; ++fill) {
      const TwoVectorTest t{
          xt.v1.bits | and_not(InputVec::random(150, prng), xt.v1.care_mask),
          xt.v2.bits | and_not(InputVec::random(150, prng), xt.v2.care_mask)};
      const std::vector<bool> got = legacy::simulate_obd(c, t, faults);
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (definite[i]) EXPECT_TRUE(got[i]) << i;
    }
  }
}

// --- Scan chains past 64 flops ----------------------------------------------

TEST(WideScan, StepMatchesScanViewOn70Flops) {
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(70);
  ASSERT_EQ(seq.flops().size(), 70u);
  const logic::Circuit sv = seq.scan_view();
  ASSERT_EQ(sv.inputs().size(), 140u);
  util::Prng prng(0x5ca2);
  for (int trial = 0; trial < 20; ++trial) {
    const InputVec pi = InputVec::random(70, prng);
    const InputVec st = InputVec::random(70, prng);
    const auto r = seq.step(pi, st);
    const InputVec out = sv.eval_outputs(pi | (st << 70));
    const std::size_t n_po = seq.core().outputs().size();
    EXPECT_EQ(out.slice(0, n_po), r.outputs);
    EXPECT_EQ(out >> n_po, r.next_state);
    EXPECT_EQ(and_not(r.next_state, InputVec::mask(70)), InputVec{});
  }
}

TEST(WideScan, BroadsideCampaignAgreesWithVerifierOn70Flops) {
  // Engine detections over the 140-input scan view must be confirmed by the
  // cycle-accurate verifier — the same contract the narrow scan tests
  // enforce, now with multi-word states.
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(70);
  const auto faults = enumerate_obd_faults(seq.core());
  const logic::Circuit sv = seq.scan_view();
  const auto random_tests =
      random_broadside_tests(seq, ScanMode::kLaunchOnCapture, 64, 0xb10ad);
  std::vector<TwoVectorTest> vectors;
  for (const auto& t : random_tests) {
    EXPECT_FALSE(t.state2_loaded);
    vectors.push_back(scan_view_vectors(seq, t));
  }
  FaultSimScheduler sched(sv, SimOptions{.threads = 2});
  const auto campaign = sched.campaign_obd(vectors, faults, true);
  EXPECT_GT(campaign.detected, 0);
  int verified = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const int t = campaign.first_test[f];
    if (t < 0) continue;
    ASSERT_TRUE(verify_scan_obd_test(seq, faults[f],
                                     random_tests[static_cast<std::size_t>(t)]))
        << fault_name(seq.core(), faults[f]);
    ++verified;
  }
  EXPECT_EQ(verified, campaign.detected);
}

TEST(WideScan, EnhancedScanAtpgFindsTestsPast64Flops) {
  // Deterministic two-frame generation on the 140-input scan view, verified
  // cycle-accurately: the PODEM layer is width-clean too.
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(70);
  const auto faults = enumerate_obd_faults(seq.core());
  int found = 0;
  for (std::size_t i = 0; i < faults.size() && found < 6; i += 37) {
    const ScanObdResult r =
        generate_scan_obd_test(seq, faults[i], ScanMode::kEnhanced);
    if (r.status != PodemStatus::kFound) continue;
    EXPECT_TRUE(verify_scan_obd_test(seq, faults[i], r.test));
    ++found;
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace obd::atpg
