// Tests for the dataset registry: ref-counted entries, shared engines,
// generations, and the streaming (append-only) path.

#include "service/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mp/discord.h"
#include "mp/motif.h"
#include "mp/stomp.h"
#include "series/generators.h"

namespace valmod::service {
namespace {

series::DataSeries MakeSeries(std::size_t n, std::uint64_t seed = 1) {
  auto series = synth::ByName("random_walk", n, seed);
  EXPECT_TRUE(series.ok());
  return std::move(*series);
}

TEST(DatasetRegistryTest, LoadGetUnload) {
  DatasetRegistry registry;
  auto loaded = registry.LoadSeries("walk", MakeSeries(512));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->name(), "walk");
  EXPECT_EQ((*loaded)->size(), 512u);
  EXPECT_EQ((*loaded)->generation(), 1u);
  EXPECT_FALSE((*loaded)->streaming());

  auto got = registry.Get("walk");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), loaded->get());

  EXPECT_EQ(registry.Get("absent").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Unload("walk").ok());
  EXPECT_EQ(registry.Get("walk").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Unload("walk").code(), StatusCode::kNotFound);
}

TEST(DatasetRegistryTest, DuplicateNamesRejected) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.LoadSeries("walk", MakeSeries(128)).ok());
  EXPECT_EQ(registry.LoadSeries("walk", MakeSeries(128)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.CreateStreaming("walk", 16).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatasetRegistryTest, SnapshotSharesOneEngineAcrossRequests) {
  DatasetRegistry registry;
  auto dataset = registry.LoadSeries("walk", MakeSeries(256));
  ASSERT_TRUE(dataset.ok());
  auto a = (*dataset)->Snapshot();
  auto b = (*dataset)->Snapshot();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same snapshot object => same engine => shared spectra caches.
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(&(*a)->engine(), &(*b)->engine());
}

TEST(DatasetRegistryTest, UnloadKeepsInFlightSnapshotsAlive) {
  DatasetRegistry registry;
  auto dataset = registry.LoadSeries("walk", MakeSeries(256));
  ASSERT_TRUE(dataset.ok());
  auto snapshot = (*dataset)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(registry.Unload("walk").ok());
  // The registry dropped the name, but this "request" still computes
  // against its snapshot safely.
  auto profile = (*snapshot)->engine().ComputeRowProfile(0, 32);
  EXPECT_TRUE(profile.ok());
  EXPECT_EQ((*snapshot)->series().size(), 256u);
}

TEST(DatasetRegistryTest, AppendOnStaticDatasetFails) {
  DatasetRegistry registry;
  auto dataset = registry.LoadSeries("walk", MakeSeries(64));
  ASSERT_TRUE(dataset.ok());
  const std::vector<double> values{1.0, 2.0};
  EXPECT_EQ((*dataset)->Append(values).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DatasetRegistryTest, StreamingAppendBumpsGenerationAndProfiles) {
  DatasetRegistry registry;
  auto dataset = registry.CreateStreaming("stream", 8);
  ASSERT_TRUE(dataset.ok());
  EXPECT_TRUE((*dataset)->streaming());
  EXPECT_EQ((*dataset)->streaming_length(), 8u);

  // Empty: no snapshot yet.
  EXPECT_EQ((*dataset)->Snapshot().status().code(),
            StatusCode::kFailedPrecondition);

  const series::DataSeries source = MakeSeries(96, 7);
  const auto values = source.values();
  auto first_append = (*dataset)->Append(values.subspan(0, 48));
  ASSERT_TRUE(first_append.ok());
  EXPECT_EQ(first_append->points, 48u);
  EXPECT_EQ(first_append->subsequences, 41u);  // 48 - 8 + 1
  EXPECT_EQ(first_append->generation, 2u);
  EXPECT_EQ((*dataset)->generation(), 2u);
  ASSERT_TRUE((*dataset)->Append(values.subspan(48)).ok());
  EXPECT_EQ((*dataset)->generation(), 3u);
  EXPECT_EQ((*dataset)->size(), 96u);

  // The incrementally maintained profile matches batch STOMP.
  auto state = (*dataset)->StreamingProfileSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->generation, 3u);
  EXPECT_EQ(state->points, 96u);
  auto batch = mp::ComputeStomp(source, 8);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(state->profile.size(), batch->size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_NEAR(state->profile.distances[i], batch->distances[i], 1e-7)
        << "row " << i;
  }
}

TEST(DatasetRegistryTest, StreamingSnapshotMaterializesPerGeneration) {
  DatasetRegistry registry;
  auto dataset = registry.CreateStreaming("stream", 4);
  ASSERT_TRUE(dataset.ok());
  const std::vector<double> first{1.0, 5.0, 2.0, 8.0, 1.0, 5.0, 2.0, 8.0};
  ASSERT_TRUE((*dataset)->Append(first).ok());

  auto snapshot_a = (*dataset)->Snapshot();
  ASSERT_TRUE(snapshot_a.ok());
  EXPECT_EQ((*snapshot_a)->series().size(), 8u);
  EXPECT_EQ((*snapshot_a)->generation(), 2u);
  // Unchanged generation reuses the cached snapshot (and its engine).
  EXPECT_EQ((*dataset)->Snapshot()->get(), snapshot_a->get());

  const std::vector<double> more{3.0, 4.0};
  ASSERT_TRUE((*dataset)->Append(more).ok());
  auto snapshot_b = (*dataset)->Snapshot();
  ASSERT_TRUE(snapshot_b.ok());
  EXPECT_NE(snapshot_b->get(), snapshot_a->get());
  EXPECT_EQ((*snapshot_b)->series().size(), 10u);
  // The old snapshot stays valid for requests still holding it.
  EXPECT_EQ((*snapshot_a)->series().size(), 8u);
}

TEST(DatasetRegistryTest, ReloadedNameGetsAFreshUid) {
  DatasetRegistry registry;
  auto first = registry.LoadSeries("walk", MakeSeries(64, 1));
  ASSERT_TRUE(first.ok());
  const std::uint64_t first_uid = (*first)->uid();
  ASSERT_TRUE(registry.Unload("walk").ok());
  auto second = registry.LoadSeries("walk", MakeSeries(64, 2));
  ASSERT_TRUE(second.ok());
  // Same name, same generation (1) — but a different identity, which is
  // what keeps result-cache keys from aliasing across a reload.
  EXPECT_EQ((*second)->generation(), (*first)->generation());
  EXPECT_NE((*second)->uid(), first_uid);
}

TEST(DatasetRegistryTest, ListReportsAllEntries) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.LoadSeries("b_static", MakeSeries(32)).ok());
  ASSERT_TRUE(registry.CreateStreaming("a_stream", 6).ok());
  const auto infos = registry.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "a_stream");
  EXPECT_TRUE(infos[0].streaming);
  EXPECT_EQ(infos[0].streaming_length, 6u);
  EXPECT_EQ(infos[1].name, "b_static");
  EXPECT_FALSE(infos[1].streaming);
  EXPECT_EQ(infos[1].points, 32u);
}

TEST(DatasetRegistryTest, WindowedStreamingEvictsAndStaysConsistent) {
  DatasetRegistry registry;
  auto dataset =
      registry.CreateStreaming("win", 8, /*exclusion_fraction=*/0.5,
                               /*max_points=*/64);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ((*dataset)->max_points(), 64u);

  const series::DataSeries source = MakeSeries(256, 9);
  const auto values = source.values();
  ASSERT_TRUE((*dataset)->Append(values.subspan(0, 100)).ok());
  auto appended = (*dataset)->Append(values.subspan(100));
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->points, 64u);
  EXPECT_EQ(appended->evicted, 192u);
  EXPECT_EQ(appended->window_start, 192u);
  EXPECT_EQ(appended->total_appended, 256u);
  EXPECT_EQ((*dataset)->size(), 64u);

  // Maintained profile == batch STOMP of the retained (last 64) raw values.
  auto state = (*dataset)->StreamingProfileSnapshot();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->window_start, 192u);
  auto retained = series::DataSeries::Create(
      {values.end() - 64, values.end()});
  ASSERT_TRUE(retained.ok());
  auto batch = mp::ComputeStomp(*retained, 8);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(state->profile.size(), batch->size());
  for (std::size_t i = 0; i < batch->size(); ++i) {
    EXPECT_NEAR(state->profile.distances[i], batch->distances[i], 1e-7)
        << "row " << i;
  }

  // Top-k of the maintained profile agrees with the batch oracle under
  // the shared selections.
  const auto motifs = mp::TopKMotifs(state->profile, 3);
  const auto batch_motifs = mp::TopKMotifs(*batch, 3);
  ASSERT_EQ(motifs.size(), batch_motifs.size());
  for (std::size_t r = 0; r < batch_motifs.size(); ++r) {
    EXPECT_EQ(motifs[r].offset_a, batch_motifs[r].offset_a);
    EXPECT_EQ(motifs[r].offset_b, batch_motifs[r].offset_b);
  }
  const auto discords = mp::TopKDiscords(state->profile, 3);
  const auto batch_discords = mp::TopKDiscords(*batch, 3);
  ASSERT_EQ(discords.size(), batch_discords.size());
  for (std::size_t r = 0; r < batch_discords.size(); ++r) {
    EXPECT_EQ(discords[r].offset, batch_discords[r].offset);
  }

  // Occupancy/footprint reporting.
  const Dataset::MemoryInfo memory = (*dataset)->Memory();
  EXPECT_EQ(memory.retained, 64u);
  EXPECT_EQ(memory.max_points, 64u);
  EXPECT_EQ(memory.evicted_total, 192u);
  EXPECT_EQ(memory.total_appended, 256u);
  EXPECT_GT(memory.memory_bytes, 0u);

  const auto infos = registry.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].max_points, 64u);
  EXPECT_EQ(infos[0].evicted, 192u);
  EXPECT_EQ(infos[0].total_appended, 256u);
  EXPECT_EQ(infos[0].points, 64u);
}

TEST(DatasetRegistryTest, WindowedSnapshotServesRetainedWindow) {
  DatasetRegistry registry;
  auto dataset =
      registry.CreateStreaming("win", 8, /*exclusion_fraction=*/0.5,
                               /*max_points=*/32);
  ASSERT_TRUE(dataset.ok());
  const series::DataSeries source = MakeSeries(80, 3);
  ASSERT_TRUE((*dataset)->Append(source.values()).ok());
  auto snapshot = (*dataset)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  // The materialized series is the retained window (anchor-shifted, which
  // z-normalized queries cannot observe).
  EXPECT_EQ((*snapshot)->series().size(), 32u);
}

}  // namespace
}  // namespace valmod::service
