// Tests for the overlap-save chunk sizing the MASS engine's overlap-save
// backend uses (its row parity against the other backends lives in
// mass_engine_test).

#include <gtest/gtest.h>

#include <cstddef>

#include "fft/fft.h"

namespace valmod::fft {
namespace {

TEST(OverlapSaveFftSizeTest, FourTimesFilterWithFloor) {
  EXPECT_EQ(OverlapSaveFftSize(1), 64u);
  EXPECT_EQ(OverlapSaveFftSize(16), 64u);
  EXPECT_EQ(OverlapSaveFftSize(17), 128u);
  EXPECT_EQ(OverlapSaveFftSize(1024), 4096u);
  // The alias-free half-chunk property the engine relies on:
  // length - 1 <= chunk / 2 for every length.
  for (std::size_t m : {std::size_t{1}, std::size_t{16}, std::size_t{17},
                        std::size_t{100}, std::size_t{4097}}) {
    EXPECT_LE(m - 1, OverlapSaveFftSize(m) / 2) << "m=" << m;
  }
}

}  // namespace
}  // namespace valmod::fft
