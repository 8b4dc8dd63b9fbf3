// A u64 event counter that several threads may bump at once. Increments
// and reads are relaxed: a counter publishes no other memory, so a struct
// of Counters read field by field is coherent per field only. Copying one
// reads its value, which makes such a struct its own snapshot type.
#pragma once

#include <atomic>
#include <cstdint>

namespace ritm {

class Counter {
 public:
  Counter() noexcept = default;
  Counter(std::uint64_t v) noexcept : v_(v) {}
  Counter(const Counter& other) noexcept : v_(other.load()) {}
  Counter& operator=(const Counter& other) noexcept {
    v_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  Counter& operator+=(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  Counter& operator++() noexcept { return *this += 1; }

  operator std::uint64_t() const noexcept { return load(); }

 private:
  std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> v_{0};
};

}  // namespace ritm
