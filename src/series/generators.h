#ifndef VALMOD_SERIES_GENERATORS_H_
#define VALMOD_SERIES_GENERATORS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "series/data_series.h"

/// Synthetic workload generators.
///
/// The paper evaluates on real recordings (UCR ECG, ASTRO light curves,
/// entomology EPG, seismographs) that are not shipped with this repository;
/// each generator below is the substitute for one of them. All generators
/// are deterministic in their seed.
namespace valmod::synth {

/// Gaussian random walk: the standard null workload for matrix-profile
/// methods (no planted structure, motifs arise by chance).
struct RandomWalkOptions {
  std::size_t length = 10000;
  uint64_t seed = 1;
  double step_stddev = 1.0;
};
Result<series::DataSeries> RandomWalk(const RandomWalkOptions& options);

/// Noisy sinusoid: the simplest periodic workload; every period is a motif
/// occurrence.
struct SineOptions {
  std::size_t length = 10000;
  uint64_t seed = 1;
  double period = 100.0;
  double amplitude = 1.0;
  double noise_stddev = 0.05;
  double phase = 0.0;
};
Result<series::DataSeries> Sine(const SineOptions& options);

/// Synthetic electrocardiogram: each beat is a P-QRS-T complex built from
/// five Gaussian bumps, with beat-to-beat jitter in duration and amplitude,
/// baseline wander, and measurement noise. Reproduces the two event scales
/// of the paper's Figure 1: the ventricular contraction (a fraction of the
/// beat) and the full beat.
struct EcgOptions {
  std::size_t length = 10000;
  uint64_t seed = 1;
  /// Mean beat duration in samples (paper Fig. 1 snippet: ~400).
  double samples_per_beat = 400.0;
  /// Relative standard deviation of beat duration (heart-rate variability).
  double beat_jitter = 0.04;
  /// Relative standard deviation of per-beat amplitude.
  double amplitude_jitter = 0.08;
  double noise_stddev = 0.02;
  double baseline_wander_amplitude = 0.1;
  double baseline_wander_period = 3000.0;
};
Result<series::DataSeries> Ecg(const EcgOptions& options);

/// Synthetic variable-star light curve ("ASTRO"): an asymmetric pulse shape
/// (three harmonics) with slowly drifting period and amplitude plus
/// photometric noise.
struct AstroOptions {
  std::size_t length = 10000;
  uint64_t seed = 1;
  double base_period = 180.0;
  /// Relative period modulation depth over `drift_period` samples.
  double period_drift = 0.06;
  double drift_period = 20000.0;
  double amplitude = 1.0;
  double noise_stddev = 0.05;
};
Result<series::DataSeries> Astro(const AstroOptions& options);

/// Synthetic seismograph: AR(1) background microseism with repeated
/// earthquake-like events (damped oscillations) of varying magnitude and
/// duration inserted at Poisson arrival times.
struct SeismicOptions {
  std::size_t length = 20000;
  uint64_t seed = 1;
  /// Expected number of events over the whole series.
  double expected_events = 8.0;
  /// Mean event duration in samples.
  double event_duration = 500.0;
  /// Oscillation period of the event waveform, in samples.
  double event_period = 40.0;
  double event_amplitude = 6.0;
  /// Relative jitter applied to duration/amplitude/period per event.
  double event_jitter = 0.15;
  double background_stddev = 1.0;
  /// AR(1) coefficient of the background noise.
  double background_ar = 0.6;
};

/// Seismic series plus the ground-truth onsets of the inserted events, used
/// by the seismic example to score detections.
struct SeismicSeries {
  series::DataSeries series;
  std::vector<std::size_t> event_onsets;
};
Result<SeismicSeries> Seismic(const SeismicOptions& options);

/// Synthetic insect EPG (electrical penetration graph) series: slow baseline
/// with repeated stylet-probing bursts — sawtooth spike trains whose
/// *duration varies per occurrence*, the variable-length pattern case that
/// motivates VALMOD.
struct EntomologyOptions {
  std::size_t length = 20000;
  uint64_t seed = 1;
  double expected_bursts = 10.0;
  /// Burst durations are drawn uniformly from this range (samples).
  double min_burst_duration = 200.0;
  double max_burst_duration = 700.0;
  /// Sawtooth spike period inside a burst, in samples.
  double spike_period = 25.0;
  double spike_amplitude = 2.0;
  double noise_stddev = 0.1;
};
Result<series::DataSeries> Entomology(const EntomologyOptions& options);

/// Random-walk background with `occurrences` copies of one smoothed random
/// pattern planted at well-separated offsets (with per-occurrence scaling
/// and noise). The ground truth offsets make exactness and recall checks
/// possible in tests and examples.
struct PlantedMotifOptions {
  std::size_t length = 10000;
  uint64_t seed = 1;
  std::size_t motif_length = 200;
  std::size_t occurrences = 3;
  /// Standard deviation of the noise added to each planted copy, relative to
  /// the unit-scale pattern.
  double occurrence_noise = 0.05;
  /// Relative amplitude jitter between copies.
  double scale_jitter = 0.1;
  /// Smoothing half-window applied to the background walk, in samples.
  std::size_t background_smoothing = 4;
};

struct PlantedMotifSeries {
  series::DataSeries series;
  std::vector<std::size_t> motif_offsets;  // sorted, well separated
};
Result<PlantedMotifSeries> PlantedMotif(const PlantedMotifOptions& options);

/// Convenience dispatcher used by benches/examples: "random_walk", "sine",
/// "ecg", "astro", "seismic", "entomology" with default shape parameters.
Result<series::DataSeries> ByName(const std::string& name, std::size_t length,
                                  uint64_t seed);

}  // namespace valmod::synth

#endif  // VALMOD_SERIES_GENERATORS_H_
