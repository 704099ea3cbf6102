// Structured tracing on the virtual clock.
//
// TraceSink records typed events — spans (gateway pipeline steps, stripe
// rail transmissions) and instants (packet send/receive, fault verdicts,
// actor lifecycle, reliable-mode retransmissions) — each on a named
// *track*, and exports them as Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing (one track per actor, one per network).
// This stands in for the paper's rdtsc instrumentation (§3.4.1): the
// gateway pipeline records "gw.recv", "gw.switch" and "gw.send" spans on
// its relay actor's track, and the Fig 5 / Fig 8 benches read them back
// with by_name() to print step-duration tables and show the PCI-conflict
// elongation of send steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/arena.hpp"

namespace mad::sim {

enum class TraceEventKind { Span, Instant };

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::Instant;
  Time begin = 0;
  Time end = 0;        // == begin for instants
  std::string track;   // Perfetto row: actor name, or "net:<network>"
  std::string name;    // e.g. "gw.recv", "pkt.tx", "rel.retransmit"
  std::string detail;  // free-form args, e.g. "bytes=8192"

  Time duration() const { return end - begin; }
};

/// Collects typed events. Disabled by default so hot paths cost one branch.
class TraceSink {
 public:
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Bounds the event store to the NEWEST `capacity` events (0 = unbounded,
  /// the default). Once full, each new event evicts the oldest and bumps
  /// dropped(). Long 10k-actor runs with tracing left on would otherwise
  /// grow the store without limit; a bounded tail is usually what you want
  /// to look at anyway. Shrinking below the current size evicts (and
  /// counts) the oldest events immediately.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  /// Events evicted by the ring since the last clear(). Also surfaced in
  /// the Chrome JSON export so a truncated trace is never mistaken for a
  /// complete one.
  std::uint64_t dropped() const { return dropped_; }

  /// Records a [begin, end] span on `track` (no-op while disabled).
  /// Emission goes through an event arena: retired TraceEvent slots (ring
  /// evictions, clear()) keep their string capacity, so steady-state
  /// tracing into a bounded sink performs no allocation.
  void span(std::string_view track, Time begin, Time end,
            std::string_view name, std::string_view detail = {});

  /// Records a point event on `track`.
  void instant(std::string_view track, Time at, std::string_view name,
               std::string_view detail = {});

  /// Point event on the calling actor's track (or "main" outside actors)
  /// at that engine's current virtual time.
  void instant_here(std::string_view name, std::string_view detail = {});

  /// [begin, end] span on the calling actor's track (or "main" outside
  /// actors): the span counterpart of instant_here.
  void span_here(Time begin, Time end, std::string_view name,
                 std::string_view detail = {});

  /// All retained events in recording order (materialized: the bounded
  /// store is a ring internally).
  std::vector<TraceEvent> events() const;
  std::vector<TraceEvent> by_name(const std::string& name) const;

  void clear();

  /// Chrome trace-event JSON ("traceEvents" array): one pid, one tid per
  /// track with thread_name metadata, events sorted by timestamp, ts/dur
  /// in microseconds. Load the file in https://ui.perfetto.dev.
  void write_chrome_json(std::ostream& out) const;

 private:
  /// Fills the next event slot (ring overwrite or arena take) in place.
  void push(TraceEventKind kind, Time begin, Time end,
            std::string_view track, std::string_view name,
            std::string_view detail);
  /// Pointers to retained events, oldest first.
  std::vector<const TraceEvent*> ordered() const;

  bool enabled_ = false;
  std::vector<TraceEvent> events_;
  util::Arena<TraceEvent> pool_;  // retired slots, string capacity intact
  std::size_t capacity_ = 0;      // 0 = unbounded
  std::size_t next_ = 0;          // ring write position once full
  std::uint64_t dropped_ = 0;     // evictions since clear()
};

/// The sink's former name, kept because fwdbench/fwdbench.cpp spells it.
using Trace = TraceSink;

}  // namespace mad::sim
