// The paper's three applications as engine plugins. Each one used to be a
// hand-wired loop in examples/; as AppStages they ride the same frame
// stream, publish typed events, and compose freely (fall monitoring and
// multi-person tracking can run in the same Engine).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "apps/appliances.hpp"
#include "apps/fall_monitor.hpp"
#include "core/multi.hpp"
#include "core/pointing.hpp"
#include "engine/stage.hpp"

namespace witrack::engine {

/// Streams raw track points through apps::FallMonitor and publishes a
/// FallEvent for every completed fall (paper Section 6.2).
class FallMonitorStage : public AppStage {
  public:
    explicit FallMonitorStage(
        core::FallDetectorConfig config = core::FallDetectorConfig{},
        std::size_t max_alerts = 64)
        : monitor_(config, max_alerts) {}

    std::string_view name() const override { return "fall_monitor"; }
    Inputs required_inputs() const override {
        return apps::FallMonitor::kRequiredInputs;
    }
    void on_frame(const Frame& frame, const core::WiTrackTracker::FrameResult& result,
                  EventBus& bus) override;

    const apps::FallMonitor& monitor() const { return monitor_; }

    /// The monitor's detector window and alert ring are the stage state.
    void save_state(common::StateWriter& writer) const override {
        monitor_.save_state(writer);
    }
    void load_state(common::StateReader& reader) override {
        monitor_.load_state(reader);
    }

  private:
    apps::FallMonitor monitor_;
};

/// Accumulates the episode's TOF stream and, when the source ends, runs the
/// pointing estimator and publishes a PointingEvent if a valid arm gesture
/// was performed (paper Section 6.1).
class PointingStage : public AppStage {
  public:
    /// `max_frames` bounds the retained TOF window (a gesture lasts a few
    /// seconds; the default keeps ~50 s at the paper's 80 Hz frame rate so
    /// an endless live stream cannot grow memory without bound). 0 keeps
    /// the whole episode.
    explicit PointingStage(core::PointingConfig config = core::PointingConfig{},
                           std::size_t max_frames = 4096)
        : config_(config), max_frames_(max_frames) {}

    std::string_view name() const override { return "pointing"; }
    /// The gesture analysis consumes the TOF stream alone: with only
    /// TOF-demanding stages attached, the Engine skips localization and
    /// smoothing for the whole session.
    Inputs required_inputs() const override { return Inputs::kTof; }
    void attach(const StageContext& context, EventBus& bus) override;
    void on_frame(const Frame& frame, const core::WiTrackTracker::FrameResult& result,
                  EventBus& bus) override;
    void finish(EventBus& bus) override;

    /// The retained TOF window is the stage state (the estimator is rebuilt
    /// by attach()).
    void save_state(common::StateWriter& writer) const override;
    void load_state(common::StateReader& reader) override;

  private:
    core::PointingConfig config_;
    std::size_t max_frames_;
    std::optional<core::PointingEstimator> estimator_;
    std::vector<core::TofFrame> frames_;
};

/// Closes the loop of Section 6.1: reacts to the PointingEvents published
/// by PointingStage by toggling the matched appliance through the Insteon
/// driver. Purely event-driven -- it never touches the frame stream,
/// demonstrating bus-only composition.
class ApplianceController : public AppStage {
  public:
    /// Registry and driver are borrowed and must outlive the Engine.
    ApplianceController(apps::ApplianceRegistry& registry, apps::InsteonDriver& driver)
        : registry_(&registry), driver_(&driver) {}

    std::string_view name() const override { return "appliances"; }
    /// Purely event-driven: demands no pipeline products at all.
    Inputs required_inputs() const override { return Inputs::kNone; }
    void attach(const StageContext& context, EventBus& bus) override;
    void on_frame(const Frame&, const core::WiTrackTracker::FrameResult&,
                  EventBus&) override {}

    /// Appliance toggled by the most recent pointing gesture, if any matched.
    const std::optional<std::string>& last_actuated() const { return last_actuated_; }

    void save_state(common::StateWriter& writer) const override;
    void load_state(common::StateReader& reader) override;

  private:
    apps::ApplianceRegistry* registry_;
    apps::InsteonDriver* driver_;
    std::optional<std::string> last_actuated_;
};

/// Runs the multi-person tracker on each frame's multi-peak TOF
/// observations and publishes a PersonsEvent (paper Section 10). Requires
/// EngineConfig::with_contour_peaks(>= max_people).
class MultiPersonStage : public AppStage {
  public:
    explicit MultiPersonStage(std::size_t max_people = 2)
        : max_people_(max_people) {}

    std::string_view name() const override { return "multi_person"; }
    /// Disambiguates multi-peak TOF observations itself; the single-person
    /// localization and smoothing steps are dead weight for this workload.
    Inputs required_inputs() const override { return Inputs::kTof; }
    void attach(const StageContext& context, EventBus& bus) override;
    void on_frame(const Frame& frame, const core::WiTrackTracker::FrameResult& result,
                  EventBus& bus) override;

    /// The per-person Kalman tracks are the stage state (attach() must
    /// have run, which Engine::add_stage guarantees).
    void save_state(common::StateWriter& writer) const override;
    void load_state(common::StateReader& reader) override;

  private:
    std::size_t max_people_;
    std::optional<core::MultiPersonTracker> tracker_;
};

}  // namespace witrack::engine
