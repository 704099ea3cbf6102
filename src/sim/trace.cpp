#include "sim/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace mad::sim {

namespace {

/// Track of the calling context: actor name inside an engine, "main"
/// outside (world construction, tests).
std::string current_track() {
  const Engine* engine = Engine::current();
  if (engine == nullptr) {
    return "main";
  }
  return engine->current_actor_name();
}

/// Trace-event "cat" field: the subsystem prefix of the event name
/// ("gw.recv" -> "gw"), the whole name when it has no dot.
std::string category_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

void TraceSink::push(TraceEventKind kind, Time begin, Time end,
                     std::string_view track, std::string_view name,
                     std::string_view detail) {
  TraceEvent* slot = nullptr;
  if (capacity_ == 0 || events_.size() < capacity_) {
    events_.push_back(pool_.take());
    slot = &events_.back();
  } else {
    // Ring: overwrite the oldest slot in place — its strings keep their
    // capacity, so a saturated ring traces without touching the
    // allocator. next_ chases the logical start: insertion order is
    // events_[next_..) then events_[0..next_).
    slot = &events_[next_];
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }
  slot->kind = kind;
  slot->begin = begin;
  slot->end = end;
  slot->track.assign(track);
  slot->name.assign(name);
  slot->detail.assign(detail);
}

void TraceSink::clear() {
  // Retired events go back to the arena so their string capacity survives
  // into the next run's slots.
  for (TraceEvent& event : events_) {
    pool_.give(std::move(event));
  }
  events_.clear();
  next_ = 0;
  dropped_ = 0;
}

void TraceSink::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  if (capacity_ == 0 || events_.size() <= capacity_) {
    return;
  }
  // Shrink: keep the newest `capacity_` events, oldest first, and account
  // for the evictions.
  std::vector<const TraceEvent*> in_order = ordered();
  std::vector<TraceEvent> kept;
  kept.reserve(capacity_);
  for (std::size_t i = in_order.size() - capacity_; i < in_order.size();
       ++i) {
    kept.push_back(*in_order[i]);
  }
  dropped_ += events_.size() - capacity_;
  events_ = std::move(kept);
  next_ = 0;
}

std::vector<const TraceEvent*> TraceSink::ordered() const {
  std::vector<const TraceEvent*> out;
  out.reserve(events_.size());
  const bool wrapped = capacity_ != 0 && events_.size() == capacity_;
  const std::size_t start = wrapped ? next_ : 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(&events_[(start + i) % events_.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (const TraceEvent* event : ordered()) {
    out.push_back(*event);
  }
  return out;
}

void TraceSink::span(std::string_view track, Time begin, Time end,
                     std::string_view name, std::string_view detail) {
  if (!enabled_) {
    return;
  }
  push(TraceEventKind::Span, begin, end, track, name, detail);
}

void TraceSink::instant(std::string_view track, Time at,
                        std::string_view name, std::string_view detail) {
  if (!enabled_) {
    return;
  }
  push(TraceEventKind::Instant, at, at, track, name, detail);
}

void TraceSink::instant_here(std::string_view name, std::string_view detail) {
  if (!enabled_) {
    return;
  }
  const Engine* engine = Engine::current();
  const Time at = engine != nullptr ? engine->now() : 0;
  instant(current_track(), at, name, detail);
}

void TraceSink::span_here(Time begin, Time end, std::string_view name,
                          std::string_view detail) {
  if (!enabled_) {
    return;
  }
  span(current_track(), begin, end, name, detail);
}

std::vector<TraceEvent> TraceSink::by_name(const std::string& name) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent* event : ordered()) {
    if (event->name == name) {
      out.push_back(*event);
    }
  }
  return out;
}

void TraceSink::write_chrome_json(std::ostream& out) const {
  // Chrome trace format: ts/dur in microseconds, "X" complete spans, "i"
  // instants, "M" metadata naming one tid per track. Events are emitted
  // sorted by timestamp so consumers (and the smoke test) can assert
  // monotonic order.
  std::vector<const TraceEvent*> sorted = ordered();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->begin < b->begin;
                   });

  std::map<std::string, int> tids;  // track -> tid, first-seen order
  std::vector<std::string> track_order;
  for (const TraceEvent* event : sorted) {
    if (tids.emplace(event->track, 0).second) {
      track_order.push_back(event->track);
    }
  }
  for (std::size_t i = 0; i < track_order.size(); ++i) {
    tids[track_order[i]] = static_cast<int>(i + 1);
  }

  const auto us = [](Time t) {
    return util::json_number(to_microseconds(t));
  };

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n";
  };
  for (const std::string& track : track_order) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << tids[track] << ",\"args\":{\"name\":\""
        << util::json_escape(track) << "\"}}";
  }
  for (const TraceEvent* event : sorted) {
    sep();
    out << "{\"name\":\"" << util::json_escape(event->name)
        << "\",\"cat\":\"" << util::json_escape(category_of(event->name))
        << "\",\"pid\":1,\"tid\":" << tids[event->track] << ",\"ts\":"
        << us(event->begin);
    if (event->kind == TraceEventKind::Span) {
      out << ",\"ph\":\"X\",\"dur\":" << us(event->end - event->begin);
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    if (!event->detail.empty()) {
      out << ",\"args\":{\"detail\":\"" << util::json_escape(event->detail)
          << "\"}";
    }
    out << "}";
  }
  if (dropped_ > 0) {
    // A truncated trace must be self-describing: viewers surface this
    // global instant, and tooling can grep for it instead of silently
    // analysing an incomplete event set.
    const Time last = sorted.empty() ? 0 : sorted.back()->begin;
    sep();
    out << "{\"name\":\"trace.dropped\",\"cat\":\"trace\",\"ph\":\"i\","
        << "\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":" << us(last)
        << ",\"args\":{\"dropped\":" << dropped_ << "}}";
  }
  out << "\n]}\n";
}

}  // namespace mad::sim
