// Bounded blocking queue between actors (virtual-time).
//
// Used for NIC rx queues, gateway work queues and test plumbing. Blocking
// honours virtual time: senders stall when the box is full, receivers stall
// when it is empty, and both orderings are deterministic (FIFO wakeups).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "util/panic.hpp"

namespace mad::sim {

template <typename T>
class Mailbox {
 public:
  /// capacity == 0 means unbounded.
  explicit Mailbox(Engine& engine, std::size_t capacity = 0,
                   std::string name = "mailbox")
      : engine_(engine),
        capacity_(capacity),
        not_empty_(engine, name + ".not_empty"),
        not_full_(engine, name + ".not_full") {}

  /// Blocks while the box is full.
  void send(T value) {
    while (full()) {
      not_full_.wait();
    }
    items_.push_back(std::move(value));
    not_empty_.notify_one();
  }

  /// Non-blocking send; returns false when full.
  bool try_send(T value) {
    if (full()) {
      return false;
    }
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the box is empty.
  T recv() {
    while (items_.empty()) {
      not_empty_.wait();
    }
    T value = std::move(items_.front());
    items_.pop_front();
    notify_not_full();
    return value;
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) {
      return std::nullopt;
    }
    T value = std::move(items_.front());
    items_.pop_front();
    notify_not_full();
    return value;
  }

  /// Blocking receive with a virtual-time deadline.
  std::optional<T> recv_until(Time deadline) {
    while (items_.empty()) {
      if (not_empty_.wait_until(deadline) == WakeReason::Timeout) {
        return try_recv();
      }
    }
    return try_recv();
  }

  /// Peek at the head without removing it (nullptr when empty). The pointer
  /// is invalidated by any mutation of the mailbox.
  const T* peek() const { return items_.empty() ? nullptr : &items_.front(); }

  /// Sets the bound of an empty box (0 = unbounded).
  void set_capacity(std::size_t capacity) {
    MAD_ASSERT(items_.empty(), "rebounding a mailbox that holds items");
    capacity_ = capacity;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool full() const { return capacity_ != 0 && items_.size() >= capacity_; }
  std::size_t capacity() const { return capacity_; }

 private:
  // An unbounded box can never fill, so nobody ever waits on not_full_;
  // skipping the notify outright keeps it out of the no-op accounting too.
  void notify_not_full() {
    if (capacity_ != 0) {
      not_full_.notify_one();
    }
  }

  Engine& engine_;
  std::size_t capacity_;
  std::deque<T> items_;
  Condition not_empty_;
  Condition not_full_;
};

}  // namespace mad::sim
