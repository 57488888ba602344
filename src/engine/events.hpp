// Typed event bus of the streaming engine. The pipeline publishes one
// TrackUpdateEvent per frame and the application stages publish their
// domain events (falls, pointing gestures, multi-person estimates);
// applications subscribe to exactly the event types they care about instead
// of hand-wiring themselves into the frame loop.
//
// Delivery is synchronous and in subscription order. Callbacks must not
// subscribe or unsubscribe on the same bus while a publish is in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fall.hpp"
#include "core/localize.hpp"
#include "core/multi.hpp"
#include "core/pointing.hpp"
#include "engine/frame_source.hpp"

namespace witrack::engine {

/// Published by the Engine after every processed frame.
struct TrackUpdateEvent {
    double time_s = 0.0;
    bool motion_detected = false;            ///< antenna quorum saw motion
    std::optional<core::TrackPoint> raw;      ///< unsmoothed solver output
    std::optional<core::TrackPoint> smoothed; ///< Kalman-smoothed 3D position
    double processing_seconds = 0.0;          ///< pipeline latency this frame
    std::optional<GroundTruth> truth;         ///< evaluation reference, if known
    /// Track confidence: the frame's hardware health score, zeroed when
    /// localization was demanded but produced no fix. 1.0 on pristine
    /// frames; dips while hardware faults are active and recovers.
    double confidence = 1.0;
};

/// Published by the fall-monitor stage the moment a fall completes.
struct FallEvent {
    double time_s = 0.0;
    core::FallDetector::Analysis analysis;
};

/// Published by the pointing stage once a valid arm gesture is recovered.
struct PointingEvent {
    core::PointingResult pointing;
};

/// Published by the multi-person stage after every processed frame.
struct PersonsEvent {
    double time_s = 0.0;
    std::vector<core::MultiPersonTracker::PersonEstimate> people;
    std::optional<GroundTruth> truth;
};

using SubscriptionId = std::uint64_t;

class EventBus {
  public:
    /// Register a callback for one event type; returns a token for
    /// unsubscribe(). Callbacks fire in subscription order.
    template <typename E>
    SubscriptionId subscribe(std::function<void(const E&)> callback) {
        const SubscriptionId id = next_id_++;
        channel<E>().push_back({id, std::move(callback)});
        return id;
    }

    /// Remove one subscription; false if the token is unknown (or already
    /// removed) for this event type.
    template <typename E>
    bool unsubscribe(SubscriptionId id) {
        auto& subscribers = channel<E>();
        for (std::size_t i = 0; i < subscribers.size(); ++i) {
            if (subscribers[i].id != id) continue;
            subscribers.erase(subscribers.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
        return false;
    }

    /// Deliver `event` to every subscriber of its type, in order.
    template <typename E>
    void publish(const E& event) const {
        for (const auto& subscriber : channel<E>()) subscriber.callback(event);
    }

    /// Subscribers currently registered for one event type. The Engine uses
    /// this to skip building events nobody listens to.
    template <typename E>
    std::size_t subscriber_count() const {
        return channel<E>().size();
    }

  private:
    template <typename E>
    struct Subscriber {
        SubscriptionId id;
        std::function<void(const E&)> callback;
    };
    template <typename E>
    using Channel = std::vector<Subscriber<E>>;

    template <typename E>
    Channel<E>& channel() {
        if constexpr (std::is_same_v<E, TrackUpdateEvent>) return track_updates_;
        else if constexpr (std::is_same_v<E, FallEvent>) return falls_;
        else if constexpr (std::is_same_v<E, PointingEvent>) return pointings_;
        else if constexpr (std::is_same_v<E, PersonsEvent>) return persons_;
        else static_assert(!sizeof(E), "EventBus: unknown event type");
    }
    template <typename E>
    const Channel<E>& channel() const {
        return const_cast<EventBus*>(this)->channel<E>();
    }

    Channel<TrackUpdateEvent> track_updates_;
    Channel<FallEvent> falls_;
    Channel<PointingEvent> pointings_;
    Channel<PersonsEvent> persons_;
    SubscriptionId next_id_ = 1;
};

}  // namespace witrack::engine
