// How components attach to the observability tier.
//
// Every instrumented component takes an `Instruments` in its config. Left
// null (the default), the component privately owns a registry + trace, so
// nothing about its behaviour or lifetime changes for existing callers.
// Composite components (an agent wrapping a collector, a partitioned client
// wrapping endpoint clients) patch their own registry/trace into the
// children's configs, tagging each child with an `instance` label so the
// series stay distinct in one registry.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {

class SpanRecorder;

/// Borrowed observability endpoints. Null members mean "own a private one".
/// The pointed-to objects must outlive the component holding this.
struct Instruments {
  MetricsRegistry* registry = nullptr;
  EventTrace* trace = nullptr;
  /// Tracing is opt-in: unlike registry/trace, a null recorder stays null
  /// (no private fallback) and every instrumentation site is a pointer
  /// check and nothing more.
  SpanRecorder* spans = nullptr;
  /// Distinguishes sibling components sharing one registry; becomes an
  /// {instance="..."} label on every series when non-empty.
  std::string id;
};

/// Member helper: resolves an Instruments into usable endpoints, owning
/// private ones where the caller did not share.
class Instrumented {
 public:
  explicit Instrumented(Instruments in) : spans_(in.spans), id_(std::move(in.id)) {
    if (in.registry != nullptr) {
      registry_ = in.registry;
    } else {
      owned_registry_ = std::make_unique<MetricsRegistry>();
      registry_ = owned_registry_.get();
    }
    if (in.trace != nullptr) {
      trace_ = in.trace;
    } else {
      owned_trace_ = std::make_unique<EventTrace>();
      trace_ = owned_trace_.get();
    }
  }

  [[nodiscard]] MetricsRegistry& registry() const { return *registry_; }
  [[nodiscard]] EventTrace& trace() const { return *trace_; }
  /// The shared span recorder, or null when tracing is off.
  [[nodiscard]] SpanRecorder* spans() const { return spans_; }
  [[nodiscard]] const std::string& id() const { return id_; }

  /// Base label set for this component's series: {{"instance", id}} when an
  /// id was assigned, empty otherwise.
  [[nodiscard]] Labels labels() const {
    Labels l;
    if (!id_.empty()) l.emplace_back("instance", id_);
    return l;
  }

  /// An Instruments a parent passes to a child so it shares this
  /// component's registry/trace under its own instance id.
  [[nodiscard]] Instruments child(std::string child_id) const {
    return Instruments{registry_, trace_, spans_, std::move(child_id)};
  }

 private:
  std::unique_ptr<MetricsRegistry> owned_registry_;
  std::unique_ptr<EventTrace> owned_trace_;
  MetricsRegistry* registry_ = nullptr;
  EventTrace* trace_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  std::string id_;
};

}  // namespace rlir::obs
