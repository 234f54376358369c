// Simulated time for the FPS T Series model.
//
// All hardware latencies in the paper are expressed in nanoseconds (125 ns
// arithmetic cycle, 400 ns memory row transfer) down to fractions of a cycle
// (62.5 ns per 32-bit vector-register word), so the simulator counts time in
// integer picoseconds: every paper constant is exactly representable and an
// int64 still covers ~106 days of simulated time (a full checkpoint-interval
// study spans minutes).
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace fpst::sim {

/// A point in (or duration of) simulated time, in integer picoseconds.
///
/// SimTime is a strong value type: arithmetic between times is explicit and
/// unit-safe construction goes through the factory functions (picoseconds(),
/// nanoseconds(), ...). The default-constructed value is time zero.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors. Fractional nanoseconds (62.5 ns) must be built from
  /// picoseconds to stay exact.
  static constexpr SimTime picoseconds(std::int64_t ps) { return SimTime{ps}; }
  static constexpr SimTime nanoseconds(std::int64_t ns) {
    return SimTime{ns * 1'000};
  }
  static constexpr SimTime microseconds(std::int64_t us) {
    return SimTime{us * 1'000'000};
  }
  static constexpr SimTime milliseconds(std::int64_t ms) {
    return SimTime{ms * 1'000'000'000};
  }
  static constexpr SimTime seconds(std::int64_t s) {
    return SimTime{s * 1'000'000'000'000};
  }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double ns() const { return static_cast<double>(ps_) * 1e-3; }
  constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double sec() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr bool is_zero() const { return ps_ == 0; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) {
    return SimTime{a.ps_ + b.ps_};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) {
    return SimTime{a.ps_ - b.ps_};
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) {
    return SimTime{a.ps_ * k};
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) {
    return SimTime{a.ps_ * k};
  }
  /// Integer division of a duration by a count (exact for all paper constants
  /// used this way; remainder is truncated).
  friend constexpr SimTime operator/(SimTime a, std::int64_t k) {
    return SimTime{a.ps_ / k};
  }
  /// Ratio of two durations as a double (for bandwidth computations).
  friend constexpr double operator/(SimTime a, SimTime b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }

  constexpr SimTime& operator+=(SimTime b) {
    ps_ += b.ps_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime b) {
    ps_ -= b.ps_;
    return *this;
  }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  /// Human-readable rendering with an auto-selected unit, e.g. "125 ns".
  std::string to_string() const;

 private:
  explicit constexpr SimTime(std::int64_t ps) : ps_{ps} {}
  std::int64_t ps_ = 0;
};

std::ostream& operator<<(std::ostream& os, SimTime t);

namespace literals {
constexpr SimTime operator""_ps(unsigned long long v) {
  return SimTime::picoseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_ns(unsigned long long v) {
  return SimTime::nanoseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_us(unsigned long long v) {
  return SimTime::microseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return SimTime::milliseconds(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_s(unsigned long long v) {
  return SimTime::seconds(static_cast<std::int64_t>(v));
}
}  // namespace literals

}  // namespace fpst::sim
