// End-to-end scenarios mirroring the paper's demonstrations: the Figure 1
// ECG walkthrough (fixed-length vs variable-length insight), the seismic
// detection workflow, and cross-algorithm agreement on one realistic run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "baselines/moen.h"
#include "baselines/stomp_range.h"
#include "core/motif_set.h"
#include "core/valmod.h"
#include "mp/discord.h"
#include "mp/motif.h"
#include "mp/stomp.h"
#include "series/generators.h"
#include "series/znorm.h"

namespace valmod {
namespace {

TEST(IntegrationTest, EcgValmapWorkflowFindsLongerBeat) {
  // Paper Figure 1: at a short fixed length the motif is a beat fragment; a
  // range search must also surface full-beat-scale matches, visible as
  // VALMAP length-profile entries well above the minimum length.
  synth::EcgOptions ecg;
  ecg.length = 5000;
  ecg.seed = 100;
  ecg.samples_per_beat = 400.0;
  auto series = synth::Ecg(ecg);
  ASSERT_TRUE(series.ok());

  core::ValmodOptions options;
  options.min_length = 50;
  options.max_length = 400;
  options.k = 4;
  options.num_threads = 4;
  auto result = core::RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  // Quasi-periodic signal: top pairs at every length should be close.
  ASSERT_FALSE(result->ranked.empty());
  EXPECT_LT(result->ranked[0].normalized_distance, 0.5);

  // Some subsequences must prefer a longer-length match (VALMAP updates at
  // lengths beyond lmin — the paper's "same event lasting longer" signal).
  std::size_t longer = 0;
  for (std::size_t l : result->valmap.length_profile()) {
    if (l >= 100) ++longer;
  }
  EXPECT_GT(longer, 0u);

  // And the updates must be replayable per length (the GUI slider).
  std::size_t total_updates = 0;
  for (std::size_t l = options.min_length; l <= options.max_length; ++l) {
    total_updates += result->valmap.UpdatesForLength(l).size();
  }
  EXPECT_EQ(total_updates, result->valmap.updates().size());
}

TEST(IntegrationTest, SeismicEventsDetectedViaMotifSets) {
  // Repeated earthquake waveforms are motifs; expanding the best pair must
  // recover most of the inserted events.
  synth::SeismicOptions seismic;
  seismic.length = 20000;
  seismic.seed = 101;
  seismic.expected_events = 10.0;
  seismic.event_duration = 300.0;
  seismic.event_jitter = 0.05;
  auto generated = synth::Seismic(seismic);
  ASSERT_TRUE(generated.ok());
  ASSERT_GE(generated->event_onsets.size(), 4u);

  core::ValmodOptions options;
  options.min_length = 150;
  options.max_length = 150;  // fixed length for speed; events span ~300
  options.num_threads = 4;
  auto result = core::RunValmod(generated->series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->per_length[0].motifs.empty());

  core::MotifSetOptions set_options;
  set_options.radius_factor = 2.5;
  auto set = core::ExpandMotifSet(generated->series,
                                  result->per_length[0].motifs[0],
                                  set_options);
  ASSERT_TRUE(set.ok());

  std::size_t hits = 0;
  for (std::size_t onset : generated->event_onsets) {
    for (const core::MotifSetMember& member : set->members) {
      if (std::llabs(member.offset - static_cast<int64_t>(onset)) <= 120) {
        ++hits;
        break;
      }
    }
  }
  // Most events recovered (some may fall off the edge or overlap).
  EXPECT_GE(hits * 2, generated->event_onsets.size());
}

TEST(IntegrationTest, AlgorithmsAgreeOnEntomologyRange) {
  auto series = synth::ByName("entomology", 1200, 102);
  ASSERT_TRUE(series.ok());
  const std::size_t lmin = 30, lmax = 60;

  core::ValmodOptions valmod_options;
  valmod_options.min_length = lmin;
  valmod_options.max_length = lmax;
  auto valmod_result = core::RunValmod(*series, valmod_options);
  ASSERT_TRUE(valmod_result.ok());

  baselines::StompRangeOptions stomp_options;
  stomp_options.min_length = lmin;
  stomp_options.max_length = lmax;
  auto stomp_result = baselines::RunStompRange(*series, stomp_options);
  ASSERT_TRUE(stomp_result.ok());

  baselines::MoenOptions moen_options;
  moen_options.min_length = lmin;
  moen_options.max_length = lmax;
  auto moen_result = baselines::RunMoen(*series, moen_options);
  ASSERT_TRUE(moen_result.ok());

  for (std::size_t i = 0; i <= lmax - lmin; ++i) {
    ASSERT_FALSE((*stomp_result)[i].motifs.empty());
    const double expected = (*stomp_result)[i].motifs[0].distance;
    EXPECT_NEAR(valmod_result->per_length[i].motifs[0].distance, expected,
                2e-5)
        << "VALMOD at length " << lmin + i;
    EXPECT_NEAR((*moen_result)[i].motifs[0].distance, expected, 2e-5)
        << "MOEN at length " << lmin + i;
  }
}

TEST(IntegrationTest, FixedLengthShortcutsMatchFullStack) {
  // Running VALMOD with lmin == lmax is the advertised way to get plain
  // fixed-length results; motifs + discords must match the mp-layer outputs.
  auto series = synth::ByName("astro", 900, 103);
  ASSERT_TRUE(series.ok());

  core::ValmodOptions options;
  options.min_length = 45;
  options.max_length = 45;
  options.k = 3;
  auto result = core::RunValmod(*series, options);
  ASSERT_TRUE(result.ok());

  auto profile = mp::ComputeStomp(*series, 45, {});
  ASSERT_TRUE(profile.ok());
  const auto motifs = mp::TopKMotifs(*profile, 3);
  ASSERT_EQ(result->per_length[0].motifs.size(), motifs.size());
  for (std::size_t m = 0; m < motifs.size(); ++m) {
    EXPECT_NEAR(result->per_length[0].motifs[m].distance,
                motifs[m].distance, 1e-9);
  }

  EXPECT_FALSE(mp::TopKDiscords(*profile, 2).empty());
}

TEST(IntegrationTest, PrefixScalingWorkflow) {
  // The Figure-3-bottom workload unit: run the same range over growing
  // prefixes; results at each prefix must be internally consistent.
  auto full = synth::ByName("ecg", 2000, 104);
  ASSERT_TRUE(full.ok());
  for (std::size_t prefix_size : {500u, 1000u, 2000u}) {
    auto prefix = full->Prefix(prefix_size);
    ASSERT_TRUE(prefix.ok());
    core::ValmodOptions options;
    options.min_length = 40;
    options.max_length = 60;
    auto result = core::RunValmod(*prefix, options);
    ASSERT_TRUE(result.ok()) << "prefix " << prefix_size;
    ASSERT_EQ(result->per_length.size(), 21u);
    for (const auto& lm : result->per_length) {
      ASSERT_FALSE(lm.motifs.empty());
      EXPECT_LT(static_cast<std::size_t>(lm.motifs[0].offset_b) + lm.length,
                prefix_size + 1);
    }
  }
}

TEST(IntegrationTest, RankedCrossLengthOrderFavorsLongerCloseMatches) {
  // Two planted motifs: a short noisy one and a long clean one. The long
  // clean pattern must win the length-normalized ranking.
  synth::PlantedMotifOptions plant;
  plant.length = 12000;
  plant.seed = 105;
  plant.motif_length = 400;
  plant.occurrences = 2;
  plant.occurrence_noise = 0.01;
  auto planted = synth::PlantedMotif(plant);
  ASSERT_TRUE(planted.ok());

  core::ValmodOptions options;
  options.min_length = 100;
  options.max_length = 400;
  options.num_threads = 4;
  auto result = core::RunValmod(planted->series, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->ranked.empty());

  // The top-ranked motif should sit at (or near) the planted long pattern.
  const mp::MotifPair& top = result->ranked[0];
  EXPECT_GE(top.length, 300u) << mp::ToString(top);
  const auto near_plant = [&](int64_t offset) {
    for (std::size_t p : planted->motif_offsets) {
      if (std::llabs(offset - static_cast<int64_t>(p)) <= 110) return true;
    }
    return false;
  };
  EXPECT_TRUE(near_plant(top.offset_a)) << mp::ToString(top);
  EXPECT_TRUE(near_plant(top.offset_b)) << mp::ToString(top);
}

}  // namespace
}  // namespace valmod
