// One configuration front door for the whole stack. Before the engine,
// every example duplicated the same plumbing -- build a ScenarioConfig, copy
// its FmcwParams into a PipelineConfig, keep seeds and noise models in sync
// by hand. EngineConfig holds each shared knob exactly once and derives the
// per-layer configs (pipeline here; scenario and frontend in the sources
// that need them, so this header stays free of sim/hw dependencies).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/constants.hpp"
#include "core/params.hpp"
#include "core/pipeline_steps.hpp"
#include "rf/noise.hpp"

namespace witrack::engine {

/// Resolve a configured worker count to the schedule actually used:
/// 0 defers to the WITRACK_WORKERS environment variable so CI (and
/// operators) can flip a whole binary to the per-RX parallel schedule
/// without touching call sites; absent, malformed or absurd (> 256) values
/// mean serial (1). An explicit count above 256 throws std::invalid_argument.
/// The one definition shared by the standalone Engine and EngineHost, so
/// both resolve identically.
std::size_t resolve_worker_count(std::size_t configured);

struct EngineConfig {
    /// FMCW sweep geometry: the single source of truth shared by the
    /// simulator, the hardware front end and the processing pipeline.
    FmcwParams fmcw;

    /// Receiver noise model (simulated deployments).
    rf::NoiseModel noise;

    /// Deployment geometry: the paper's T array behind (or inside) the wall.
    bool through_wall = true;
    double antenna_separation_m = 1.0;
    double device_height_m = 1.3;
    /// Add the redundant fourth receive antenna (4-RX cross array): the
    /// localizer can then drop any one antenna and keep a 3D fix.
    bool cross_array = false;

    /// Simulation reproducibility and speed knobs (ignored by live sources).
    std::uint64_t seed = 1;
    bool fast_capture = false;
    bool model_sweep_nonlinearity = true;
    bool second_person = false;

    /// Processing-pipeline tuning. `pipeline.fmcw` is overwritten by
    /// pipeline_config() so the sweep geometry can never diverge.
    core::PipelineConfig pipeline;

    /// Scheduler parallelism: number of worker threads for the per-RX TOF
    /// fan-out (app stages always run on the thread calling step()). 0 =
    /// read the WITRACK_WORKERS environment variable (absent -> serial);
    /// 1 = serial. Parallel output is bit-identical to serial.
    std::size_t workers = 0;

    /// Demand override for the scheduler. Unset (the default), the Engine
    /// unions AppStage::required_inputs() with event-bus subscriptions and
    /// runs only the demanded pipeline steps; set, exactly these outputs
    /// (closed over dependencies) are computed regardless of consumers --
    /// useful for benchmarks and for driving the tracker directly.
    std::optional<core::PipelineOutputs> outputs;

    // ------------------------------------------------------ fluent builder

    EngineConfig& with_fmcw(const FmcwParams& params) {
        fmcw = params;
        return *this;
    }
    EngineConfig& with_seed(std::uint64_t s) {
        seed = s;
        return *this;
    }
    EngineConfig& with_through_wall(bool enabled) {
        through_wall = enabled;
        return *this;
    }
    EngineConfig& with_cross_array(bool enabled) {
        cross_array = enabled;
        return *this;
    }
    EngineConfig& with_fast_capture(bool enabled) {
        fast_capture = enabled;
        return *this;
    }
    EngineConfig& with_second_person(bool enabled) {
        second_person = enabled;
        return *this;
    }
    EngineConfig& with_contour_peaks(std::size_t peaks) {
        pipeline.contour_peaks = peaks;
        return *this;
    }
    /// Bound the tracker's retained history (0 = keep everything); see
    /// PipelineConfig::max_track_history.
    EngineConfig& with_track_history(std::size_t max_points) {
        pipeline.max_track_history = max_points;
        return *this;
    }
    EngineConfig& with_noise(const rf::NoiseModel& model) {
        noise = model;
        return *this;
    }
    EngineConfig& with_workers(std::size_t count) {
        workers = count;
        return *this;
    }
    EngineConfig& with_outputs(core::PipelineOutputs demanded) {
        outputs = demanded;
        return *this;
    }

    /// The pipeline configuration with the shared FMCW parameters applied.
    core::PipelineConfig pipeline_config() const {
        core::PipelineConfig p = pipeline;
        p.fmcw = fmcw;
        return p;
    }
};

}  // namespace witrack::engine
